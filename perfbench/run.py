"""splitcouple benchmark: the entry point.

    python3 perfbench/run.py --workload ar1 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run of the workload is a fresh
Python process (perfbench/child.py), started one at a time: a closed loop
with one client.  Runs are started until ``--seconds`` have passed, so the
last one may end later; at least one always runs.

With ``--trace 0`` the result carries the end-to-end metrics, each the
median over the runs: ``run_s`` (harness.run plus write_report over the
workload's configs), ``setup_s`` (import plus config load, over the runs and
extra set-up-only processes so there are at least three samples),
``replica_steps_per_s`` and ``peak_rss_mb``.  With ``--trace 1`` each round
is an untraced run followed by a traced one (perfbench/tracer.py); the
result carries the per-layer metrics, and the traced artifacts must be
byte-identical to the untraced ones.

A line starting with ``perfbench`` gives quartiles, sample counts, run
metadata and artifact digest matches; the last line is the JSON result.
A run fails when it raises, when the output check finds a problem, or when
traced and untraced artifacts differ.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SEED_POOL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "splitcouple"
WORK = ROOT / ".perfbench-work"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units

TIME_LIMIT_S = 170.0  # a whole invocation must end within 180 s
MIN_SETUP_SAMPLES = 3


class Runner:
    """Starts child processes for one workload and collects their results."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.configs = work / "configs"
        self.configs.mkdir(parents=True)
        for spec in WORKLOADS[workload]:
            (self.configs / f"{spec.name}.cfg").write_text(spec.text(seed), encoding="utf-8")
        self.count = 0
        self.env = dict(os.environ)
        self.env.pop("SPLITCOUPLE_WORKERS", None)  # the program's default

    def child(self, *flags: str) -> dict:
        self.count += 1
        out = self.work / f"out{self.count}"
        result = self.work / f"result{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--configs", str(self.configs), "--out", str(out), "--result", str(result),
               *flags]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0 or not result.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return {"error": f"exit {proc.returncode}: {tail[0]}"}
        return json.loads(result.read_text(encoding="utf-8"))


def failed(res: dict) -> bool:
    return "error" in res or bool(res.get("problems"))


def spread(values: list[float]) -> dict:
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def pinned_matches(workload: str, seed: int, digests: dict) -> tuple[int, int]:
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
    want = pinned.get(str(seed % SEED_POOL), {})
    return sum(want.get(k) == v for k, v in digests.items()), len(digests)


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list, list]:
    """Rounds of runs, started until ``seconds`` have passed."""
    runner.child("--setup-only")  # warm-up: page cache and bytecode, not timed
    start = time.monotonic()
    rounds = []
    while True:
        began = time.monotonic()
        rounds.append([runner.child()] + ([runner.child("--trace")] if trace else []))
        now = time.monotonic()
        if now - start >= seconds or now + (now - began) > runner.deadline:
            break
    setups = [r["setup_s"] for rnd in rounds for r in rnd if "setup_s" in r]
    while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < runner.deadline - 10.0:
        res = runner.child("--setup-only")
        if "setup_s" in res:
            setups.append(res["setup_s"])
    return rounds, setups


def end_to_end(timed: list, setups: list) -> dict:
    return {
        "run_s": spread([r["run_s"] for r in timed]),
        "setup_s": spread(setups),
        "replica_steps_per_s": spread([r["replica_steps"] / r["run_s"] for r in timed]),
        "peak_rss_mb": spread([r["peak_rss_mb"] for r in timed]),
    }


def per_layer(rounds: list, matches: int, artifacts: int) -> dict:
    pairs = [(plain, traced) for plain, traced in rounds
             if "layers" in traced and "run_s" in plain]
    values = {name: spread([t["layers"][name] for _, t in pairs])
              for name in pairs[0][1]["layers"]}
    values["config.load_s"] = spread([t["config_load_s"] for _, t in pairs])
    values["trace.run_s"] = spread([t["run_s"] for _, t in pairs])
    values["trace.overhead_s"] = spread([t["run_s"] - p["run_s"] for p, t in pairs])
    values["harness.artifacts_identical"] = spread([float(matches)])
    values["harness.artifacts"] = spread([float(artifacts)])
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description="splitcouple benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"perfbench: no splitcouple sources at {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(args.workload, args.seed, work, deadline)
        rounds, setups = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    if args.trace:
        for plain, traced in rounds:
            if not failed(plain) and not failed(traced) and plain["digests"] != traced["digests"]:
                traced["problems"] = ["traced artifacts differ from untraced ones"]
    runs = [r for rnd in rounds for r in rnd]
    bad = [r for r in runs if failed(r)]
    timed = [r for r in runs if r.get("run_s", 0.0) > 0.0]
    has_trace = not args.trace or any("layers" in t and "run_s" in p for p, t in rounds)
    if not timed or not setups or not has_trace:
        for r in bad[:3]:
            print("perfbench: failed run:", r.get("error") or r.get("problems"), file=sys.stderr)
        print("perfbench: no run completed", file=sys.stderr)
        return 1

    ref = next((r for r in timed if not failed(r)), timed[0])
    matches, artifacts = pinned_matches(args.workload, args.seed, ref["digests"])
    if args.trace:
        stats = per_layer(rounds, matches, artifacts)
    else:
        stats = end_to_end(timed, setups)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_frac": len(bad) / len(runs), "artifacts_identical": f"{matches}/{artifacts}",
        "nproc": os.cpu_count(), **ref["versions"], "src_lines": src_lines(),
        "metrics": stats, "problems": [r.get("error") or r["problems"] for r in bad][:5],
    }
    print("perfbench", json.dumps(summary))
    print(json.dumps({
        "correct": not bad, "attempted": len(runs), "failed": len(bad),
        "metrics": {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
