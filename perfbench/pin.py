"""Pin the sha256 digests of every workload's artifacts for every seed.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs each workload once for each of the SEED_POOL program seeds and writes
the digests to perfbench/digests.json, which run.py compares against to
report ``harness.artifacts_identical``.  A run whose output check fails is
not pinned.  Re-pinning is a deliberate re-baseline: do it only when a
change is meant to alter the artifacts, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import DIGESTS, WORK, Runner, failed
from workloads import SEED_POOL, WORKLOADS


def main(names: list[str]) -> int:
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    status = 0
    for workload in names or sorted(WORKLOADS):
        digests = {}
        for seed in range(SEED_POOL):
            work = WORK / f"pin-{workload}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                res = Runner(workload, seed, work, time.monotonic() + 600.0).child()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if failed(res):
                print(f"{workload} seed {seed}: not pinned:",
                      res.get("error") or res["problems"], file=sys.stderr)
                status = 1
                continue
            digests[str(seed)] = res["digests"]
            print(f"{workload} seed {seed}: pinned {len(res['digests'])} artifacts", flush=True)
        pinned[workload] = digests
        DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
