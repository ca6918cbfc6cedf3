"""Peak resident memory of a fresh process that runs one round of a workload.

    python3 perfbench/rss_probe.py --workload NAME --seed N

Runs the seed's first round of jobs of the workload, checks each answer,
and prints ``{"peak_rss_mb", "jobs", "failed"}`` as its last line, the
peak being the process's high-water resident set size.
``run.py`` starts it as a child so that the figure holds this workload
alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys

from run import OUT, ROOT, BenchError, JobRunner, load_minisol
from workloads import WORKLOADS, make_round


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    try:
        mods = load_minisol()
    except BenchError as exc:
        print(f"rss_probe: {exc}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    runner = JobRunner(mods, work)
    try:
        jobs = make_round(ROOT, args.workload, args.seed, 0)
        problems = [p for p in (runner.run(job)[1] for job in jobs) if p]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"  FAILED {problem}")
    print(json.dumps({"peak_rss_mb": peak_rss_kib() / 1024, "jobs": len(jobs),
                      "failed": len(problems)}))
    return 0


def peak_rss_kib() -> int:
    """Peak resident KiB of this process since it started.

    Linux keeps ``ru_maxrss`` across exec, so a child started from a
    large parent would report the parent's size; ``VmHWM`` belongs to
    the process's own address space and starts afresh at exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    sys.exit(main())
