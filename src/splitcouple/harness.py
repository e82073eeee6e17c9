"""Experiment drivers: configs in, deterministic CSV/JSON artifacts out.

Every experiment derives all randomness from the master seed through
per-replica streams, reduces in replica order, and serializes floats with 17
significant digits, so identical config + seed reproduces byte-identical
artifacts.  Wall-clock time is reported on stdout and kept on the in-memory
report only; the serialized report contains nothing a rerun would change.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np
import numpy.rec  # loaded on first use otherwise, inside a run (see streams)

from .config import ExperimentConfig
from .errors import RunError, ScheduleError
from .fracvol import (
    discrete_log_vol_variance, increment_constants, increment_moment_check, simulate_ensemble,
)
from .metrics import tv_empirical, tv_empirical_se, tv_gaussian
from .streams import replica_blocks, replica_uniform_pairs


@dataclass
class RunReport:
    experiment: str
    config: dict
    results: dict
    flags: dict[str, bool]
    replicas: int
    wall_clock_s: float
    table_rows: np.recarray  # the CSV table: field names are its header

    @property
    def all_flags_true(self) -> bool:
        return all(self.flags.values())


def _json_safe(obj, where: str):
    """Plain JSON values; a non-finite float is a RunError naming its field."""
    if isinstance(obj, dict):
        return {k: _json_safe(v, f"{where}.{k}") for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v, f"{where}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise RunError(f"report field {where} is not a finite number")
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist(), where)
    return obj


# One %-format per column dtype kind; an object column holds Python ints
# past int64 (block lengths of a long schedule).
_CELL_FORMATS = {"b": "%s", "i": "%d", "u": "%d", "f": "%.17g", "O": "%d"}


def emit_csv(report: RunReport, path: str) -> None:
    """Header plus one line per record, LF line endings: ``true``/``false``,
    exact integers and 17-significant-digit decimals."""
    table = report.table_rows
    names = table.dtype.names
    fmt = ",".join(_CELL_FORMATS[table.dtype[name].kind] for name in names)
    cols = [
        np.where(table[name], "true", "false").tolist() if table.dtype[name].kind == "b"
        else table[name].tolist()
        for name in names
    ]
    lines = [",".join(names), *(fmt % row for row in zip(*cols))]
    _write_atomic(path, "\n".join(lines) + "\n")


def emit_json(report: RunReport, path: str) -> None:
    """Sorted keys, two-space indent; a non-finite number is a RunError."""
    payload = {
        "experiment": report.experiment,
        "config": _json_safe(report.config, "config"),
        "replicas": report.replicas,
        "results": _json_safe(report.results, "results"),
        "flags": report.flags,
    }
    _write_atomic(path, json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_atomic(path: str, text: str) -> None:
    """Replace ``path`` by ``text`` at once, through a temporary file beside it."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            # on disk before the rename, so a crash cannot leave a short file
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_report(report: RunReport, outdir: str) -> tuple[str, str]:
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, f"{report.experiment}.csv")
    json_path = os.path.join(outdir, "report.json")
    try:
        # JSON first: a non-finite result is refused before any file changes
        emit_json(report, json_path)
        emit_csv(report, csv_path)
    except OSError as exc:
        raise RunError(f"could not write report to {outdir}: {exc}") from exc
    return csv_path, json_path


# Each driver returns the run's results, flags and CSV table; ``run`` builds
# the report.  The ar1 and logvol drivers import their models when they run:
# those load scipy.special, which an sde-sim run never needs.
def _run_ar1_bound(cfg: ExperimentConfig) -> tuple[dict, dict, np.recarray]:
    from . import ar1 as ar1mod
    p = cfg.model
    rows = []
    st_mean, st_var = ar1mod.ar1_stationary(p)
    for t in cfg.options["t_grid"]:
        n = ar1mod.ar1_n_schedule(p, t)
        term1, term2 = ar1mod.ar1_bound_terms(p, t, n)
        mean_t, var_t = ar1mod.ar1_marginal(p, t)
        tv = tv_gaussian(mean_t, var_t, st_mean, st_var)
        total = term1 + term2
        rows.append((t, n, term1, term2, total, tv, total > tv))
    flags = {"dominates_all": all(r[-1] for r in rows)}
    results = {
        "t_grid": list(cfg.options["t_grid"]),
        "bounds": [r[4] for r in rows],
        "tv_exact": [r[5] for r in rows],
    }
    table = np.rec.fromrecords(
        rows, names="t,n,bound_term1,bound_term2,bound_total,tv_exact,dominates"
    )
    return results, flags, table


def _run_ar1_couple(cfg: ExperimentConfig) -> tuple[dict, dict, np.recarray]:
    from . import ar1 as ar1mod
    from .coupling import coupled_pair_batch, coupling_lower_bound, tv_upper_from_coupling
    p = cfg.model
    n = cfg.options["n"]
    s = cfg.options["s"]
    t = cfg.options["t"]
    kernel = ar1mod.ar1_split_kernel(p.gamma, n_max=max(n, 1))
    u = replica_uniform_pairs(cfg.seed, range(cfg.replicas), t)
    res = coupled_pair_batch(kernel, n, p.x0, s, t, u)
    frac = int(np.count_nonzero(res.coupled)) / len(res)
    se = math.sqrt(frac * (1.0 - frac) / len(res))
    sup_sq = max(p.x0**2, 1.0 / (1.0 - p.gamma**2))
    eps_hat = min(sup_sq / kernel.ladder.radii[n] ** 2 if n > 0 else 0.5, 0.5)
    lower = coupling_lower_bound(kernel.ladder.alphas[n], s, eps_hat)
    tv_bound, half_width = tv_upper_from_coupling(res.coupled)
    m_s, v_s = ar1mod.ar1_marginal(p, s)
    m_t, v_t = ar1mod.ar1_marginal(p, t)
    tv_exact = tv_gaussian(m_t, v_t, m_s, v_s)
    flags = {
        "coupled_fraction_above_bound": frac >= lower - 3.0 * se,
        "tv_sandwich": tv_bound + half_width >= tv_exact,
    }
    results = {
        "coupled_fraction": frac,
        "coupled_fraction_se": se,
        "lower_bound": lower,
        "eps_hat": eps_hat,
        "tv_bound": tv_bound,
        "tv_half_width": half_width,
        "tv_exact": tv_exact,
    }
    table = np.rec.fromarrays(
        [np.arange(len(res)), res.coupled, res.couple_step], names="replica,coupled,couple_step"
    )
    return results, flags, table


def _run_logvol_sim(cfg: ExperimentConfig) -> tuple[dict, dict, np.recarray]:
    from .logvol import logvol_moment_bound, simulate_logvol_batch
    p = cfg.model
    checkpoints = cfg.options["checkpoints"]
    horizon = max(checkpoints)
    samples = simulate_logvol_batch(p, horizon, cfg.replicas, cfg.seed, checkpoints)
    k_bound = logvol_moment_bound(p)
    rows = []
    for t in checkpoints:
        sq = samples[t] ** 2
        mean_sq = float(sq.mean())
        se = float(sq.std(ddof=1) / math.sqrt(sq.size))
        rows.append((t, mean_sq, se, k_bound, mean_sq <= k_bound + 3.0 * se))
    flags = {"moment_bounded_all": all(r[-1] for r in rows)}
    results = {
        "checkpoints": list(checkpoints),
        "mean_sq": [r[1] for r in rows],
        "se": [r[2] for r in rows],
        "moment_bound": k_bound,
    }
    table = np.rec.fromrecords(rows, names="t,mean_sq,se,moment_bound,within_bound")
    return results, flags, table


# Block lengths grow past int64 on a long schedule, so they stay Python ints.
_SCHEDULE_DTYPE = [("m", np.int64), ("n", np.int64), ("alpha", np.float64),
                   ("block_len", object), ("cumulative", object)]


def _run_logvol_couple(cfg: ExperimentConfig) -> tuple[dict, dict, np.recarray]:
    from .coupling import mcre_coupled_chains_batch
    from .logvol import LogvolMcreModel, logvol_schedule, ma_env_values
    p = cfg.model
    m_max = cfg.options["m_max"]
    target_block = cfg.options["target_block"]
    step_cap = cfg.options["step_cap"]
    x0_pair = cfg.options["x0_pair"]
    try:
        schedule = logvol_schedule(p, m_max)
    except ScheduleError as exc:
        flags = {"schedule_terminates": False, "coupled_by_target_at_least_half": False}
        results = {"schedule_error": str(exc)}
        table = np.rec.fromrecords([], dtype=_SCHEDULE_DTYPE)
        return results, flags, table

    rows = [
        (m + 1, schedule.n_of_m[m], schedule.alphas[m], schedule.N_of_m[m], schedule.M_of_m[m + 1])
        for m in range(m_max)
    ]
    table = np.rec.fromrecords(rows, dtype=_SCHEDULE_DTYPE)
    t_target = schedule.M_of_m[target_block]
    t_sim = int(min(t_target, step_cap))
    censored = t_sim < t_target

    model = LogvolMcreModel(p, n_max=max(schedule.n_of_m))
    gen = np.random.Generator
    layout = [(gen.standard_normal, (p.lag + t_sim + 2,)), (gen.random, (t_sim, 2))]
    # One block: the coupling engine takes every replica at once.  The
    # normals are freed once the environment is built from them.
    _, _, (eta, u) = next(replica_blocks(cfg.seed, range(cfg.replicas), cfg.replicas, layout))
    env = ma_env_values(p, eta)
    del eta
    res = mcre_coupled_chains_batch(model, env, tuple(x0_pair), schedule, t_sim, u)
    frac = int(np.count_nonzero(res.coupled)) / len(res)
    # Coupling is absorbing, so the fraction at the (possibly capped) horizon
    # is a valid lower bound for the fraction at the target boundary.
    flags = {
        "schedule_terminates": True,
        "coupled_by_target_at_least_half": frac >= 0.5,
    }
    results = {
        "target_boundary": int(t_target),
        "simulated_steps": t_sim,
        "censored_at_cap": censored,
        "coupled_fraction": frac,
    }
    return results, flags, table


def _run_sde_sim(cfg: ExperimentConfig) -> tuple[dict, dict, np.recarray]:
    p = cfg.model
    l0 = cfg.options["l0"]
    steps = cfg.options["record_steps"]
    samples = simulate_ensemble(p, l0, cfg.replicas, steps, cfg.seed)
    at = dict(zip(steps, samples.transpose(1, 0, 2)))  # step -> its (states, replicas) samples

    cp_steps = sorted({p.step_of(t) for t in cfg.options["checkpoints"]})
    tv_vals = [tv_empirical(at[s][0], at[s][1]) for s in cp_steps]
    tv_ses = [tv_empirical_se(at[s][0], at[s][1]) for s in cp_steps]
    nonincreasing = all(
        tv_vals[i + 1] <= tv_vals[i] + 3.0 * math.hypot(tv_ses[i], tv_ses[i + 1])
        for i in range(len(tv_vals) - 1)
    )
    l_tilde = float(max(np.mean(x**2) for x in samples.reshape(-1, cfg.replicas)))
    consts = increment_constants(p, l_tilde)
    base = p.step_of(cfg.options["increment_base"])
    inc_flags, inc_results = {}, []
    for h_req in cfg.options["increment_lags"]:
        k = p.step_of(h_req)  # validate refuses a lag of no step
        check = increment_moment_check(at[base][0], at[base + k][0], k * p.dt, consts)
        inc_flags[f"increment_bound_h={h_req:g}"] = check.passed
        inc_results.append(
            {"h_requested": h_req, "h_actual": k * p.dt, "empirical": check.empirical,
             "bound": check.bound, "se": check.se}
        )
    flags = {
        "tv_final_below_threshold": tv_vals[-1] < cfg.options["tv_threshold"],
        "tv_nonincreasing": nonincreasing,
        **inc_flags,
    }
    times = [s * p.dt for s in steps]
    moments = [
        {
            "initial_state": l0[i],
            "checkpoint_time": times[j],
            "mean": float(samples[i, j].mean()),
            "variance": float(samples[i, j].var()),
        }
        for i in range(len(l0))
        for j in range(len(steps))
    ]
    results = {
        "checkpoints": [s * p.dt for s in cp_steps],
        "tv_empirical": tv_vals,
        "tv_se": tv_ses,
        "moments": moments,
        "l_tilde": l_tilde,
        "log_vol_variance": discrete_log_vol_variance(p),
        "increments": inc_results,
    }
    # One record per sample, in (state, recorded step, replica) order.
    n_states, n_times, reps = samples.shape
    table = np.rec.fromarrays(
        [
            np.repeat(np.arange(n_states), n_times * reps),
            np.tile(np.repeat(times, reps), n_states),
            np.tile(np.arange(reps), n_states * n_times),
            samples.ravel(),
        ],
        names="initial_state_id,checkpoint_time,replica_id,L_value",
    )
    return results, flags, table


_RUNNERS = {
    "ar1-bound": _run_ar1_bound,
    "ar1-couple": _run_ar1_couple,
    "logvol-sim": _run_logvol_sim,
    "logvol-couple": _run_logvol_couple,
    "sde-sim": _run_sde_sim,
}


def run(cfg: ExperimentConfig) -> RunReport:
    """Execute the configured experiment and return its report."""
    started = time.perf_counter()
    results, flags, table = _RUNNERS[cfg.experiment](cfg)
    return RunReport(cfg.experiment, cfg.resolved, results, flags, cfg.replicas,
                     time.perf_counter() - started, table)
