"""Check that per-layer counts repeat exactly between two traced runs.

    python3 perfbench/check_counts.py --workload NAME|all --seed N

Runs ``run.py --trace 1`` twice with the same seed, each in a fresh
process, and compares every count metric (``*.calls``, ``*.yielded``,
``*.paths``). A traced run makes at least two repeats of the seed's
first round however short it is asked to be; ``RUN_SECONDS`` only keeps
those two well inside the run's cap. Exits 0 when all counts are equal,
1 when any differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracer import COUNT_SUFFIXES

HERE = Path(__file__).resolve().parent
RUN_SECONDS = 10
RUN_TIMEOUT_S = 900


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"check_counts: {' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"check_counts: {' '.join(cmd)} reported an incorrect run:\n"
                 f"{proc.stdout[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(COUNT_SUFFIXES)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    differ = sorted(k for k in first.keys() | second.keys()
                    if first.get(k) != second.get(k))
    for k in differ:
        print(f"DIFFERS {k}: {first.get(k)} then {second.get(k)}")
    print(f"{len(first) - len(differ)} of {len(first)} counts repeat exactly")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
