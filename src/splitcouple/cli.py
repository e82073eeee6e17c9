"""Command-line front door: ``run``, ``validate`` and ``report`` subcommands.

Exit codes: 0 when every acceptance flag of the targeted run is true, 1 when
any flag is false, 2 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import load_config
from .errors import CertificationError, ConfigError, RunError, ScheduleError
from .harness import run as run_experiment
from .harness import write_report


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    outdir = args.out if args.out else cfg.output_dir
    report = run_experiment(cfg)
    csv_path, json_path = write_report(report, outdir)
    print(f"experiment: {report.experiment}")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    for name, ok in sorted(report.flags.items()):
        print(f"flag {name}: {'PASS' if ok else 'FAIL'}")
    print(f"wall clock: {report.wall_clock_s:.3f} s")
    return 0 if report.all_flags_true else 1


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    for key in sorted(cfg.resolved):
        print(f"{key} = {cfg.resolved[key]}")
    print(f"estimated peak memory: {cfg.peak_bytes / 2**20:.1f} MiB a process")
    print("config ok")
    return 0


def _cmd_report(args) -> int:
    path = os.path.join(args.run_dir, "report.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise RunError(f"{path}: cannot read a run report: {exc}") from exc
    if not isinstance(payload, dict) or not {"experiment", "replicas"} <= payload.keys():
        raise RunError(f"{path}: not a run report: it needs 'experiment' and 'replicas'")
    flags = payload.get("flags", {})
    if not isinstance(flags, dict) or not all(isinstance(ok, bool) for ok in flags.values()):
        raise RunError(f"{path}: 'flags' must map each flag's name to true or false")
    print(f"experiment: {payload['experiment']}")
    print(f"replicas: {payload['replicas']}")
    for name, ok in sorted(flags.items()):
        print(f"flag {name}: {'PASS' if ok else 'FAIL'}")
    return 0 if all(flags.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="splitcouple",
        description="Deterministic coupling and stability experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output directory (overrides output.dir)")
    p_run.set_defaults(fn=_cmd_run)
    p_val = sub.add_parser("validate", help="validate a config and echo defaults")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)
    p_rep = sub.add_parser("report", help="summarize a finished run directory")
    p_rep.add_argument("run_dir")
    p_rep.set_defaults(fn=_cmd_report)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # every failure exits 2 with one line, never as a false flag
        known = isinstance(exc, (CertificationError, ConfigError, RunError, ScheduleError,
                                 ValueError, OSError))
        print(f"error: {exc}" if known else f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
