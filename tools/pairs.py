"""Alternating pairs of benchmark runs over two source trees.

    python3 tools/pairs.py PARENT_SRC CHANGE_SRC --pairs 10 --seconds 20 \\
        [--workload all] [--seed 3] [--json FILE]

Each run is ``perfbench/run.py --workload W --seed S --seconds T`` in one
temporary directory, which holds a copy of this checkout's ``perfbench/``
and ``samples/`` and, before each run, a fresh copy of the side's ``src/``
tree: peak RSS moves with the directory a checkout sits in, so both sides
run from the same one. Pair ``i`` runs seed ``SEED + i``, the parent first
in even pairs and the change first in odd ones.

For each workload and metric the script prints each side's median and
quartiles and the number of pairs the change won. Every end-to-end metric
is better lower, and a tie wins for neither side. Each end-to-end metric
that ``BENCHMARK.json`` declares with a relative ``bound`` is marked
``ok``, or ``WORSE`` when the change's median is worse than the parent's
by more than that bound, and the last line names every ``WORSE`` one.
``--json`` also writes every run's result object and the summary.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def result_object(stdout: str) -> dict:
    """The result object ``{"correct", "attempted", "failed", "metrics"}``,
    which ``perfbench/run.py`` prints as its last line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def end_to_end_bounds() -> dict:
    """``{metric: (bound, better)}`` for each end-to-end metric that this
    checkout's ``BENCHMARK.json`` declares; the file is only read."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["bound"], m["better"]) for m in doc["end_to_end"]}


def beyond_bound(parent: float, change: float, bound: float, better: str) -> bool:
    """Whether ``change`` is worse than ``parent`` by more than the relative ``bound``."""
    if better == "lower":
        return change > parent * (1 + bound)
    return change < parent * (1 - bound)


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list, bounds: dict | None = None) -> dict:
    """Per metric of both sides' result objects, over ``(parent, change)``
    pairs: each side's median and quartiles, and the pairs the change won.
    A ``WORKLOAD.METRIC``, or the bare ``METRIC`` of a one-workload run,
    whose metric ``bounds`` names also gets its ``bound`` and whether the
    change's median is ``beyond_bound``."""
    names = [n for n in pairs[0][0]["metrics"]
             if all(n in side["metrics"] for pair in pairs for side in pair)]
    summary = {}
    for name in names:
        parent, change = ([pair[i]["metrics"][name]["value"] for pair in pairs] for i in (0, 1))
        (p1, p3), (c1, c3) = _quartiles(parent), _quartiles(change)
        s = summary[name] = {
            "parent_median": statistics.median(parent), "parent_q1": p1, "parent_q3": p3,
            "change_median": statistics.median(change), "change_q1": c1, "change_q3": c3,
            "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
        metric = name if bounds and name in bounds else name.partition(".")[2]
        if bounds and metric in bounds:
            bound, better = bounds[metric]
            s["bound"] = bound
            s["beyond_bound"] = beyond_bound(s["parent_median"], s["change_median"], bound, better)
    return summary


def format_summary(summary: dict) -> str:
    lines = [f"{'metric':36s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
             f" {'won':>6s} {'change':>8s} {'bound':>6s}"]
    for name, s in summary.items():
        ratio = s["change_median"] / s["parent_median"] - 1 if s["parent_median"] else 0.0
        sides = [f"{s[f'{side}_median']:.5g} [{s[f'{side}_q1']:.5g}, {s[f'{side}_q3']:.5g}]"
                 for side in SIDES]
        mark = "" if "bound" not in s else "WORSE" if s["beyond_bound"] else "ok"
        lines.append(f"{name:36s} {sides[0]:>34s} {sides[1]:>34s}"
                     f" {s['change_better_pairs']:>2d}/{s['pairs']:<3d} {ratio:+8.1%} {mark:>6s}")
    return "\n".join(lines)


def run_side(work: Path, src: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of ``src`` from the work directory."""
    shutil.rmtree(work / "src", ignore_errors=True)
    shutil.copytree(src, work / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=work, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return result_object(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent's src/ tree")
    ap.add_argument("change", type=Path, help="the change's src/ tree")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=3, help="seed of the first pair")
    ap.add_argument("--json", type=Path, help="write the runs and the summary here")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, not {args.pairs}")
    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    for side, tree in trees.items():
        if not (tree / "minisol" / "cli.py").is_file():
            ap.error(f"{side}: {tree} holds no minisol/cli.py")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for d in ("perfbench", "samples"):
            shutil.copytree(ROOT / d, work / d, ignore=shutil.ignore_patterns("__pycache__", "out"))
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: run_side(work, trees[side], args.workload, seed, args.seconds)
                    for side in order}
            runs.append({"seed": seed, "first": order[0], **pair})
            print(f"pair {i + 1}/{args.pairs} seed {seed}: parent correct "
                  f"{pair['parent']['correct']}, change correct {pair['change']['correct']}",
                  file=sys.stderr)

    summary = summarize([(r["parent"], r["change"]) for r in runs], end_to_end_bounds())
    print(format_summary(summary))
    worse = [name for name, s in summary.items() if s.get("beyond_bound")]
    print(f"worse than the parent beyond the bound: {', '.join(worse) or 'none'}")
    if args.json:
        args.json.write_text(json.dumps({"pairs": runs, "summary": summary}, indent=1) + "\n",
                             encoding="utf-8")
    return 0 if all(r[side]["correct"] for r in runs for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
