"""Flat key-value experiment configs with dotted section names.

The format is one ``key = value`` pair per line, ``#`` comments, keys like
``ar1.gamma``.  Lists are comma separated; model families use a call-like
value such as ``geometric(0.5, 512)`` or ``exponential(1.0)``.  Every field
is validated against the target module's invariants before any computation,
and the fully resolved config (defaults included) is echoed into the run
report so a run is reproducible from its artifacts alone.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError, ScheduleError
from .fracvol import (
    RESOURCE_CAP,
    SdeParams,
    VolatilityKernel,
    ensemble_working_bytes,
    increment_flag,
    linear_drift,
    saturating_drift,
)
from .parallel import part_ranges

EXPERIMENTS = ("ar1-bound", "ar1-couple", "logvol-sim", "logvol-couple", "sde-sim")
MEMORY_CAP_BYTES = 4 * 2**30  # the most a run may plan to hold at once
_MIN_REPLICAS = 100  # the fewest a Monte Carlo experiment may run
# Beside the arrays a split run joins: each output array's objects (its
# headers in the part, payload and joined forms, pickle's memo), about 1 KiB,
# and what a finished part leaves allocated (numpy's and the streams' caches,
# traced at 12-30 KiB)
_OUTPUT_ARRAY_BYTES = 1024
_PART_LEFTOVER_BYTES = 48 * 1024

_CALL_RE = re.compile(r"^([a-z_]+)\(([^)]*)\)$")


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings; later duplicates override earlier ones."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not re.fullmatch(r"[a-z0-9_]+(\.[a-z0-9_]+)*", key):
            raise ConfigError(f"line {lineno}: malformed key {key!r}")
        out[key] = value.strip()
    return out


class _Fields:
    """Typed accessor over raw key/value strings that records what it reads."""

    def __init__(self, raw: dict[str, str]):
        self.raw = dict(raw)
        self.resolved: dict[str, Any] = {}
        self.read: set[str] = set()

    def _get(self, key: str, default):
        self.read.add(key)
        if key in self.raw:
            return self.raw[key]
        if default is _REQUIRED:
            raise ConfigError(f"{key}: required field is missing")
        return default

    def str_(self, key: str, default=None) -> str:
        val = self._get(key, default)
        self.resolved[key] = val
        return val

    def int_(self, key: str, default=None) -> int:
        val = self._get(key, default)
        try:
            out = int(str(val))
        except ValueError:
            raise ConfigError(f"{key}: expected integer, got {val!r}") from None
        self.resolved[key] = out
        return out

    def float_(self, key: str, default=None) -> float:
        val = self._get(key, default)
        try:
            out = float(str(val))
        except ValueError:
            raise ConfigError(f"{key}: expected number, got {val!r}") from None
        _require_finite(key, (out,))
        self.resolved[key] = out
        return out

    def float_list(self, key: str, default=None) -> tuple[float, ...]:
        val = self._get(key, default)
        if isinstance(val, tuple):
            out = val
        else:
            try:
                out = tuple(float(v) for v in str(val).split(",") if v.strip())
            except ValueError:
                raise ConfigError(f"{key}: expected comma-separated numbers, got {val!r}") from None
        if not out:
            raise ConfigError(f"{key}: list must be nonempty")
        _require_finite(key, out)
        self.resolved[key] = out
        return out

    def int_list(self, key: str, default=None) -> tuple[int, ...]:
        vals = self.float_list(key, default)
        out = tuple(int(v) for v in vals)
        if any(float(i) != v for i, v in zip(out, vals)):
            raise ConfigError(f"{key}: expected integers")
        self.resolved[key] = out
        return out

    def unused_keys(self) -> list[str]:
        return sorted(k for k in self.raw if k not in self.read)


_REQUIRED = object()


def _require_finite(key: str, values) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ConfigError(f"{key}: {v!r} is not a finite number")


def _require_summable_fourth_powers(key: str, starts, replicas: int) -> None:
    """The se of a mean of squares sums fourth powers over the replicas, and a
    chain that starts far out stays near its start for the first steps: refuse
    a start whose fourth power, summed over the replicas, overflows a double."""
    limit = (sys.float_info.max / replicas) ** 0.25
    for x in starts:
        if abs(x) > limit:
            raise ConfigError(f"{key}: {x:g} is past {limit:.3g}, where its fourth power "
                              f"summed over {replicas} replicas overflows")


def _parse_call(key: str, text: str, families: dict[str, int]) -> tuple[str, list[float]]:
    m = _CALL_RE.match(text.strip())
    if not m:
        raise ConfigError(f"{key}: expected one of {sorted(families)} with arguments, got {text!r}")
    name, argtext = m.group(1), m.group(2)
    if name not in families:
        raise ConfigError(f"{key}: unknown family {name!r}; expected one of {sorted(families)}")
    try:
        args = [float(a) for a in argtext.split(",")] if argtext.strip() else []
    except ValueError:
        raise ConfigError(f"{key}: malformed arguments in {text!r}") from None
    _require_finite(key, args)
    if len(args) not in (families[name], families[name] - 1):
        raise ConfigError(f"{key}: {name} takes up to {families[name]} numeric arguments")
    return name, args


def _ma_coeffs(fields: _Fields) -> tuple[float, ...]:
    from .logvol import (DEFAULT_MA_LAG, LogvolParams, block_working_bytes, fractional_ma,
                         geometric_ma)
    text = fields.str_("logvol.ma", f"geometric(0.5, {DEFAULT_MA_LAG})")
    if "(" in text:
        name, args = _parse_call("logvol.ma", text, {"geometric": 2, "fractional": 2})
        lag = args[1] if len(args) > 1 else DEFAULT_MA_LAG
        if lag < 0 or lag != int(lag):
            raise ConfigError(f"logvol.ma: lag must be a non-negative integer, got {lag:g}")
        lag = int(lag)
        family = geometric_ma if name == "geometric" else fractional_ma
        # Refused before the coefficients are built when the smallest run, one
        # step of logvol-sim, cannot hold them.  Whether the MA runs as a scan
        # is the same at every lag from 2 on, so three taps decide the rate.
        try:
            head = family(args[0], min(lag, 2))
        except ValueError as exc:
            raise ConfigError(f"logvol.ma: {exc}") from None
        rate = LogvolParams(gamma=0.5, rho=0.0, ma_coeffs=head).ma_rate
        need = block_working_bytes(lag, rate, 1, _MIN_REPLICAS)
        if need > MEMORY_CAP_BYTES:
            raise ConfigError(
                f"logvol.ma: lag {lag} is over the longest a run can hold under the "
                f"{MEMORY_CAP_BYTES / 2**30:g} GiB memory cap ({_MIN_REPLICAS} replicas for "
                f"one step would hold {need / 2**30:.3g} GiB)"
            )
        return family(args[0], lag)
    try:
        coeffs = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"logvol.ma: malformed coefficient list {text!r}") from None
    if not coeffs:
        raise ConfigError("logvol.ma: coefficient list must be nonempty")
    _require_finite("logvol.ma", coeffs)
    return coeffs


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    replicas: int
    output_dir: str
    model: Any
    options: dict[str, Any]
    resolved: dict[str, Any] = field(repr=False)
    peak_bytes: int  # estimate for one process, see _estimate_peak_bytes


_CONFIG_NAMES = {"ma_coeffs": "ma", "zeta": "drift"}  # model fields keyed under another name


def _model(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, whose refusal names the model field it refuses
    first and is keyed under that field's config key (``gamma must lie ...`` is
    ``ar1.gamma``); a config field read for an argument refuses before the call."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        name = str(exc).split(" ", 1)[0]
        raise ConfigError(f"{section}.{_CONFIG_NAMES.get(name, name)}: {exc}") from None


def _estimate_peak_bytes(experiment: str, replicas: int, model, options: dict) -> tuple[int, int]:
    """Bytes a run holds at once, in one process and over all of its
    processes, by arithmetic before any compute: the per-replica arrays its
    driver keeps (8 bytes a float) and its table, plus the working set its
    simulator states (``fracvol.ensemble_working_bytes``,
    ``logvol.block_working_bytes``, ``coupling.engine_step_bytes``) and
    the CSV batch ``harness.csv_batch_bytes``.  ``sde-sim`` frees the
    ensemble's buffers before it builds its table, and ``logvol-couple`` its
    normals before the engine runs, so each peak is the larger of its
    phases.  Every Monte Carlo run is cut into the parts of
    ``parallel.part_ranges`` (``_split_bytes``)."""
    r = replicas
    if experiment == "ar1-bound":
        return 0, 0
    if experiment == "sde-sim":
        # a sample per state, recorded step and replica; then a table record
        # of four 8-byte cells per sample, built beside the samples and then
        # written beside one CSV batch, with the replica ids broadcast into
        # the table and what the finished parts leave (traced at 11 B a replica)
        from .harness import csv_batch_bytes
        per_replica = len(options["l0"]) * len(options["record_steps"])
        peak, total = _split_bytes(r, model.burn_steps + model.horizon_steps,
                                   lambda n: ensemble_working_bytes(model, n), 8 * per_replica, 1)
        rows = per_replica * r
        table = (max(40 * rows, 32 * rows + csv_batch_bytes(rows))
                 + 16 * r + _PART_LEFTOVER_BYTES)
        return max(peak, table), max(total, table)
    from .coupling import engine_step_bytes
    if experiment == "ar1-couple":
        # uniform pairs a step beside a step of the engine; a record holds an
        # int8 event code a coupled step, the flag, the step and two states.
        # The CSV rows, fewer bytes, are written once the uniforms are freed.
        return _split_bytes(r, options["t"],
                            lambda n: n * 16 * options["t"] + engine_step_bytes(n),
                            options["s"] + 26, 1)
    from .logvol import block_working_bytes, logvol_schedule
    if experiment == "logvol-sim":  # a block's working set; the checkpoint samples
        steps = max(options["checkpoints"])
        return _split_bytes(r, steps,
                            lambda n: block_working_bytes(model.lag, model.ma_rate, steps, n),
                            8 * len(set(options["checkpoints"])), len(set(options["checkpoints"])))
    try:
        schedule = logvol_schedule(model, options["m_max"])
    except ScheduleError:
        return 0, 0  # the run stops once the schedule fails
    # logvol-couple frees its normals before the engine runs: first the normals,
    # uniform pairs and environment while the moving average runs, then the
    # environment, uniform pairs and event codes beside a step of the engine;
    # a record holds the codes, the flag, the step and two states
    steps = min(schedule.M_of_m[options["target_block"]], options["step_cap"])

    def work(n: int) -> int:
        env_and_pairs = n * (16 * (steps + 1) + 16 * steps)
        draws = (n * 8 * (model.lag + steps + 2) + env_and_pairs
                 + block_working_bytes(model.lag, model.ma_rate, steps, n, draws=False))
        return max(draws, env_and_pairs + n * (steps + 1) + engine_step_bytes(n))

    return _split_bytes(r, steps, work, steps + 26, 1)


def _split_bytes(replicas: int, steps: int, work, record: int, arrays: int) -> tuple[int, int]:
    """Bytes, in one process and over all of them, of a run of ``steps`` a
    replica cut into ``parallel.part_ranges``: a part of ``n`` replicas holds
    ``work(n)``, its draws and working set, and ``record`` bytes a replica of
    output in ``arrays`` arrays.  Each process peaks in its largest phase.  A
    forked child holds its output beside its working set, then beside the
    payload pickled from it (in a buffer grown to 1.5 times its size).  The
    first process holds its output beside its working set, then the joined
    output beside its own output, then beside a child's payload and the part
    unpickled from it, with each array's objects and its finished part's
    leftovers."""
    first, *rest = (len(rows) for rows in part_ranges(replicas, steps))
    join = (record * (replicas + max(first, 2 * max(rest)))
            + _OUTPUT_ARRAY_BYTES * arrays + _PART_LEFTOVER_BYTES) if rest else 0
    peaks = [max(work(first) + record * first, join)]
    peaks += [record * n + max(work(n), record * n * 3 // 2) for n in rest]
    return max(peaks), sum(peaks)


def load_config_text(text: str) -> ExperimentConfig:
    raw = parse_config_text(text)
    fields = _Fields(raw)
    experiment = fields.str_("experiment", _REQUIRED)
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown kind {experiment!r}; expected one of {EXPERIMENTS}")
    seed = fields.int_("seed", 12345)
    if seed < 0:
        raise ConfigError(f"seed: must be a non-negative integer, got {seed}")
    output_dir = fields.str_("output.dir", f"runs/{experiment}")

    options: dict[str, Any] = {}
    replicas = 1
    # ar1 and logvol load scipy.special, so each is imported by its own configs only
    if experiment in ("ar1-bound", "ar1-couple"):
        from .ar1 import Ar1BoundParams, Ar1Params, ar1_alpha, ar1_lyapunov_constant
        bound = experiment == "ar1-bound"
        gamma = fields.float_("ar1.gamma", 0.5)
        x0 = fields.float_("ar1.x0", 0.0 if bound else 1.0)
        model = _model("ar1", Ar1Params, gamma=gamma, x0=x0)
        if bound:  # beta and eta are the bound's knobs: the coupling reads neither
            model = _model("ar1", Ar1BoundParams, model,
                           beta=fields.float_("ar1.beta", 0.4 * (1.0 - gamma**2)),
                           eta=fields.float_("ar1.eta", 0.1))
        # The run's Lyapunov term: the bound's 4 sup_t E[exp(beta X_t^2)], or
        # x0^2 in the coupling's sup_t E[X_t^2].
        lyapunov = 4.0 * ar1_lyapunov_constant(model) if bound else x0 * x0
        if not math.isfinite(lyapunov):
            raise ConfigError(f"ar1.x0: {x0:g} overflows the run's Lyapunov term")
    if experiment == "ar1-bound":
        options["t_grid"] = fields.int_list("ar1.t_grid", (10, 100, 1000, 10000))
        if min(options["t_grid"]) < 2:
            raise ConfigError("ar1.t_grid: horizons must be at least 2")
    elif experiment == "ar1-couple":
        from . import coupling  # the run's engine, loaded here so that the run imports none
        options["n"] = fields.int_("couple.n", 3)
        options["s"] = fields.int_("couple.s", 50)
        options["t"] = fields.int_("couple.t", 100)
        if not 1 <= options["s"] <= options["t"]:
            raise ConfigError("couple.s: need 1 <= s <= t")
        if options["n"] < 0:
            raise ConfigError("couple.n: ladder index must be nonnegative")
        try:
            alpha = ar1_alpha(gamma, options["n"])
        except OverflowError:  # an index past the largest double
            alpha = 0.0
        if alpha == 0.0:
            raise ConfigError(f"couple.n: the minorization weight of [-n, n] underflows to 0 "
                              f"at n = {options['n']}, so no step can regenerate")
        replicas = fields.int_("replicas", 10000)
    elif experiment in ("logvol-sim", "logvol-couple"):
        from .logvol import LogvolParams
        gamma = fields.float_("logvol.gamma", 0.5)
        rho = fields.float_("logvol.rho", 0.3)
        x0 = fields.float_("logvol.x0", 0.0)
        coeffs = _ma_coeffs(fields)
        model = _model("logvol", LogvolParams, gamma=gamma, rho=rho, ma_coeffs=coeffs, x0=x0)
        if experiment == "logvol-sim":
            options["checkpoints"] = fields.int_list("logvol.checkpoints", (10, 100))
            if min(options["checkpoints"]) < 1:
                raise ConfigError("logvol.checkpoints: horizons must be at least 1")
        else:
            options["m_max"] = fields.int_("logvol.m_max", 4)
            options["target_block"] = fields.int_("logvol.target_block", 3)
            options["step_cap"] = fields.int_("logvol.step_cap", 20000)
            options["x0_pair"] = fields.float_list("logvol.x0_pair", (1.0, -1.0))
            for key in ("target_block", "step_cap"):
                if options[key] < 1:
                    raise ConfigError(f"logvol.{key}: must be at least 1")
            if options["m_max"] < options["target_block"]:
                raise ConfigError("logvol.m_max: must cover the target block")
            if len(options["x0_pair"]) != 2:
                raise ConfigError("logvol.x0_pair: need exactly two starts")
            if options["x0_pair"][0] == options["x0_pair"][1]:
                raise ConfigError("logvol.x0_pair: initial states must be distinct; equal "
                                  "starts are coupled before the first step")
        replicas = fields.int_("replicas", 10000)
    else:  # sde-sim
        drift_text = fields.str_("sde.drift", "linear(1.0)")
        name, args = _parse_call("sde.drift", drift_text, {"linear": 1, "saturating": 2})
        try:
            drift = linear_drift(*args) if name == "linear" else saturating_drift(*args)
        except OverflowError:  # a parameter squared past the largest double
            raise ConfigError(f"sde.drift: {drift_text}: the growth constant overflows") from None
        except ValueError as exc:
            raise ConfigError(f"sde.drift: {drift_text}: {exc}") from None
        kern_text = fields.str_("sde.kernel", "exponential(1.0)")
        kname, kargs = _parse_call("sde.kernel", kern_text, {"exponential": 1, "fractional": 1})
        param, default = ("lam", 1.0) if kname == "exponential" else ("h", 0.1)
        try:
            kernel = VolatilityKernel(kind=kname, **{param: kargs[0] if kargs else default})
        except ValueError as exc:
            raise ConfigError(f"sde.kernel: {exc}") from None
        rho = fields.float_("sde.rho", 0.3)
        dt = fields.float_("sde.dt", 1.0 / 256.0)
        horizon = fields.float_("sde.horizon", 20.0)
        burn_in = fields.float_("sde.burn_in", 10.0)
        model = _model("sde", SdeParams, zeta=drift, kernel=kernel, rho=rho, dt=dt,
                       horizon=horizon, burn_in=burn_in)
        # at lipschitz * dt >= 2 an explicit Euler step of a linear drift multiplies
        # the state by 1 - kappa dt <= -1: the paths oscillate without decay or overflow
        if drift.lipschitz * dt >= 2.0:
            raise ConfigError(
                f"sde.drift: {drift_text}: its Lipschitz constant {drift.lipschitz:g} times "
                f"sde.dt = {dt:g} is {drift.lipschitz * dt:.3g}, at or past 2, where the "
                f"explicit Euler step is unstable"
            )
        options["l0"] = fields.float_list("sde.l0", (-2.0, 2.0))
        if len(options["l0"]) < 2:
            raise ConfigError("sde.l0: need at least two initial states to compare")
        if len(set(options["l0"])) < len(options["l0"]):
            raise ConfigError("sde.l0: initial states must be distinct; equal starts "
                              "forget nothing")
        options["checkpoints"] = fields.float_list("sde.checkpoints", (5.0, 10.0, 20.0))
        options["increment_lags"] = fields.float_list("sde.increment_lags", (0.1, 0.01))
        if min(model.step_of(h) for h in options["increment_lags"]) < 1:
            raise ConfigError(f"sde.increment_lags: lags must be at least half a grid step "
                              f"(sde.dt = {model.dt:g})")
        # each lag's check is its own flag; two lags under one name would keep one check
        flags = [increment_flag(h) for h in options["increment_lags"]]
        if len(set(flags)) < len(flags):
            raise ConfigError(f"sde.increment_lags: two lags share a flag name "
                              f"({', '.join(flags)}); give lags that differ in six "
                              f"significant digits")
        options["increment_base"] = fields.float_("sde.increment_base", 10.0)
        for t in options["checkpoints"]:
            if not 0.0 <= t <= model.horizon:
                raise ConfigError(f"sde.checkpoints: {t} outside [0, horizon]")
        # the increment window is checked on the grid it runs on, base step plus lag steps
        base = model.step_of(options["increment_base"])
        reach = base + model.step_of(max(options["increment_lags"]))
        if options["increment_base"] < 0.0 or reach > model.horizon_steps:
            raise ConfigError("sde.increment_base: increment window leaves [0, horizon]")
        # the distinct grid steps a run records: each checkpoint, the base and the base plus each lag
        options["record_steps"] = sorted(
            {model.step_of(t) for t in options["checkpoints"]}
            | {base} | {base + model.step_of(h) for h in options["increment_lags"]}
        )
        replicas = fields.int_("replicas", 10000)

    if experiment != "ar1-bound" and replicas < _MIN_REPLICAS:
        raise ConfigError(f"replicas: a Monte Carlo experiment needs {_MIN_REPLICAS} or more")
    if experiment in ("logvol-sim", "logvol-couple"):
        _require_summable_fourth_powers("logvol.x0", (model.x0,), replicas)
    elif experiment == "sde-sim":
        _require_summable_fourth_powers("sde.l0", options["l0"], replicas)

    unused = fields.unused_keys()
    if unused:
        raise ConfigError(f"{unused[0]}: unknown field for experiment {experiment!r}")
    peak, total = _estimate_peak_bytes(experiment, replicas, model, options)
    if total > MEMORY_CAP_BYTES:
        raise ConfigError(
            f"replicas: the run would hold about {total / 2**30:.3g} GiB at once, "
            f"over the {MEMORY_CAP_BYTES / 2**30:g} GiB cap"
        )
    if experiment == "sde-sim":  # the replica-step cap simulate_ensemble enforces
        steps = replicas * (model.burn_steps + model.horizon_steps)
        if steps > RESOURCE_CAP:
            raise ConfigError(
                f"replicas: the ensemble needs {steps:.3g} replica-steps, "
                f"over the cap {RESOURCE_CAP:.3g}"
            )

    return ExperimentConfig(
        experiment=experiment,
        seed=seed,
        replicas=replicas,
        output_dir=output_dir,
        model=model,
        options=options,
        resolved=fields.resolved,
        peak_bytes=peak,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config_text(fh.read())
