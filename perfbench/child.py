"""One run of a workload in a fresh process.

    python3 perfbench/child.py --workload ar1 --configs DIR --out DIR --result FILE [--trace]

Set-up is the import of splitcouple plus loading and validating the
workload's configs.  The run is ``harness.run`` plus ``write_report`` for
each config, with the program's defaults.  The outputs are then checked
against invariants that hold for any correct version of the program, and
one JSON object with the timings, the check's findings and the artifacts'
sha256 digests is written to FILE.  With ``--setup-only`` the process stops
after set-up.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

CSV_HEADERS = {
    "ar1-bound": ["t", "n", "bound_term1", "bound_term2", "bound_total", "tv_exact", "dominates"],
    "ar1-couple": ["replica", "coupled", "couple_step"],
    "logvol-sim": ["t", "mean_sq", "se", "moment_bound", "within_bound"],
    "logvol-couple": ["m", "n", "alpha", "block_len", "cumulative"],
    "sde-sim": ["initial_state_id", "checkpoint_time", "replica_id", "L_value"],
}


def expected_rows(cfg, flags) -> int:
    opt = cfg.options
    kind = cfg.experiment
    if kind == "ar1-bound":
        return len(opt["t_grid"])
    if kind == "ar1-couple":
        return cfg.replicas
    if kind == "logvol-sim":
        return len(opt["checkpoints"])
    if kind == "logvol-couple":
        return opt["m_max"] if flags.get("schedule_terminates") else 0
    # sde-sim records every checkpoint, the increment base and the base plus
    # each lag snapped to whole grid steps, for each start and replica.
    dt = cfg.model.dt
    base = opt["increment_base"]
    times = set(opt["checkpoints"]) | {base}
    times |= {base + max(1, round(h / dt)) * dt for h in opt["increment_lags"]}
    return len(opt["l0"]) * len(times) * cfg.replicas


def replica_steps(cfg, report) -> int:
    """Replicas times simulated steps (both starts of the SDE count)."""
    kind = cfg.experiment
    if kind == "ar1-couple":
        return cfg.replicas * cfg.options["t"]
    if kind == "logvol-sim":
        return cfg.replicas * max(cfg.options["checkpoints"])
    if kind == "logvol-couple":
        return cfg.replicas * int(report.results.get("simulated_steps", 0))
    if kind == "sde-sim":
        return cfg.replicas * len(cfg.options["l0"]) * cfg.model.horizon_steps
    return 0


def _nonfinite(obj, path="results"):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _nonfinite(v, f"{path}.{k}")]
    return [p for i, v in enumerate(obj) for p in _nonfinite(v, f"{path}[{i}]")]


def _finite_cell(cell: str) -> bool:
    if cell in ("true", "false"):
        return True
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def check(spec, cfg, report, csv_path, json_path) -> list[str]:
    """Invariant-based output check; returns what failed, empty when correct."""
    name = spec.name
    try:
        payload = json.loads(Path(json_path).read_text(encoding="utf-8"))
        with open(csv_path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
    except (OSError, ValueError) as exc:
        return [f"{name}: artifacts do not parse: {exc}"]
    problems = []
    flags = payload.get("flags", {})
    if flags != report.flags or not all(isinstance(v, bool) for v in flags.values()):
        problems.append(f"{name}: report.json flags differ from the run's flags")
    exit_code = 0 if report.all_flags_true else 1
    if exit_code != (0 if all(flags.values()) else 1):
        problems.append(f"{name}: exit code {exit_code} does not match the flags")
    for flag, want in spec.must_hold.items():
        if flags.get(flag) is not want:
            problems.append(f"{name}: flag {flag} is {flags.get(flag)}, expected {want}")
    problems += [f"{name}: non-finite {p}" for p in _nonfinite(payload)]

    header, rows = (table[0], table[1:]) if table else ([], [])
    if header != CSV_HEADERS[cfg.experiment]:
        problems.append(f"{name}: CSV header {header}")
    want_rows = expected_rows(cfg, flags)
    if len(rows) != want_rows:
        problems.append(f"{name}: CSV has {len(rows)} rows, config implies {want_rows}")
    bad_row = next((i for i, row in enumerate(rows) if len(row) != len(header)), None)
    if bad_row is not None:
        return problems + [f"{name}: CSV row {bad_row + 1} has {len(rows[bad_row])} cells"]
    if not all(_finite_cell(c) for row in rows for c in row):
        problems.append(f"{name}: CSV has a non-finite or non-numeric cell")
    if cfg.experiment == "ar1-couple" and rows:
        coupled = sum(r[1] == "true" for r in rows)
        if any((r[1] == "true") != (int(r[2]) >= 0) for r in rows):
            problems.append(f"{name}: coupled and couple_step disagree")
        if coupled / len(rows) != payload["results"]["coupled_fraction"]:
            problems.append(f"{name}: coupled_fraction differs from the CSV")
    return problems


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--configs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    specs = WORKLOADS[args.workload]

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from splitcouple import config, harness

    loaded = time.perf_counter()
    cfgs = [config.load_config(str(Path(args.configs) / f"{s.name}.cfg")) for s in specs]
    ready = time.perf_counter()
    result = {"setup_s": ready - start, "config_load_s": ready - loaded}

    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.install()
        run_s = 0.0
        done = []
        try:
            for spec, cfg in zip(specs, cfgs):
                t0 = time.perf_counter()
                report = harness.run(cfg)
                paths = harness.write_report(report, str(Path(args.out) / spec.name))
                run_s += time.perf_counter() - t0
                done.append((spec, cfg, report, paths))
        except Exception as exc:  # any escape is a failed run, recorded not raised
            result["error"] = f"{type(exc).__name__}: {exc}"
        result["run_s"] = run_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["replica_steps"] = sum(replica_steps(c, r) for _, c, r, _ in done)
        result["problems"] = [p for s, c, r, (cp, jp) in done for p in check(s, c, r, cp, jp)]
        result["digests"] = {
            f"{s.name}/{Path(p).name}": _sha256(p) for s, _, _, paths in done for p in paths
        }
        if tracer is not None:
            result["layers"] = tracer.layers(run_s)

    import numpy
    import scipy

    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
