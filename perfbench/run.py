"""minisol benchmark: CPU time of ``minisol verify`` and ``minisol run``.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

One client, closed loop, no threads: the next job starts when the last
one has finished. A job is one command line run in-process through
``minisol.cli.cli_main`` with its output captured, so its time covers
argument handling, reading, parsing, binding, typechecking, building the
world, execution or exploration, judging and rendering, but not
interpreter start-up. Every job's exit code and output are checked
against the benchmark's own reference answer (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics of each workload. Timings
are ``time.process_time`` CPU seconds, scaled to a reference machine
speed: a fixed calibration kernel is timed between every two jobs, and
each job's CPU time is multiplied by ``CAL_REF_S`` over the mean of the
kernel times on either side of it. On a shared machine the same job's
CPU time swings by half between slow and fast phases; the scaled time
swings far less. Unscaled medians and the speed factors are in the
report line.

- ``job_s.p50`` and ``job_s.p90``: per-job seconds. A run keeps going
  until ``--seconds`` per workload have passed and at least ``MIN_JOBS``
  jobs ran, so that ten or more samples lie beyond p90. A run that reaches
  ``CAP`` times its time first is not ``correct``.
- ``setup_s``: median per job of the seconds spent before the entry
  program's first dispatch, timed by calling ``parse_source``,
  ``bind_addresses``, ``parse_spec`` (verify jobs) and ``build_world``
  directly on the job's inputs.
- ``peak_rss_mb``: peak resident MiB of a fresh child process
  (``rss_probe.py``) that runs the workload's first round of jobs.

Failed jobs are reported as ``failed`` of ``attempted`` (``fail_frac``).
Any failed job makes the run not ``correct``.

``--trace 1`` runs the seed's first round of jobs again and again, each
job once untraced and once traced, and prints per-layer counts and
times for one round (see ``tracer.py``), plus ``trace.overhead``, the
traced job median over the untraced one. The run is ``correct`` only if
every traced function was found, at least ``MIN_TRACE_REPEATS`` repeats
ran and counts repeat exactly in every repeat. The spans of the first
traced repeat are written to ``perfbench/out/``.

``--workload all`` interleaves the four workloads job by job, so that a
slow phase of the machine spreads over all of them, and prefixes each
metric with its workload. The calibration kernel is also timed before
and after the measured loop; those times, the Python version, the source
revision, the CPU count, the seed and the parameter ranges are printed
in the ``perfbench-report`` line. The last line of output is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import COUNT_SUFFIXES, Tracer, per_layer_metrics
from workloads import ROUND, WORKLOADS, make_round, param_ranges

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MODULES = ("cli", "parser", "binder", "specfile", "runner", "engine", "stmts",
           "exprs", "memory", "values")
MIN_JOBS = 120          # at least ten samples beyond p90
MIN_TRACE_REPEATS = 2   # so that counts can be compared within a run
CAP = 5                 # stop at CAP x the time asked for, even if short of jobs
CALIBRATION_REPEATS = 15
# Kernel CPU seconds that define the unit of the scaled timings: about the
# kernel's time on an idle core of a 2-core x86_64 machine, Python 3.11.
CAL_REF_S = 0.012
PROBE_TIMEOUT_S = 150

END_TO_END = (("job_s.p50", "s"), ("job_s.p90", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"))


class BenchError(Exception):
    pass


def load_minisol() -> dict:
    """Import minisol from this checkout's ``src``; never from elsewhere."""
    src = ROOT / "src"
    for needed in (src / "minisol" / "cli.py", ROOT / "samples" / "wallet.lls"):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(ROOT)} is missing: "
                             "run from a full checkout of the repository")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"minisol.{name}") for name in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != src / "minisol":
        raise BenchError(f"imported minisol from {mods['cli'].__file__}, not {src}")
    return mods


class JobRunner:
    """Runs jobs through the CLI and times their set-up phase."""

    def __init__(self, mods: dict, work: Path):
        self.mods = mods
        self.work = work
        work.mkdir(parents=True, exist_ok=True)

    def run(self, job) -> tuple:
        """(CPU seconds, problem or None) of one command."""
        paths = {}
        for key, text in job.files.items():
            paths[key] = self.work / f"{job.workload}.{key}"
            paths[key].write_text(text, encoding="utf-8")
        argv = job.resolve(paths)
        out, err = io.StringIO(), io.StringIO()
        problem = None
        gc.collect()
        t0 = time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.mods["cli"].cli_main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            problem = f"raised {type(exc).__name__}: {exc}"
        dt = time.process_time() - t0
        if problem is None:
            problem = job.check(rc, out.getvalue())
        if problem is not None:
            problem = f"{job.workload} job {job.index} {job.params}: {problem}"
        return dt, problem

    def setup_seconds(self, job) -> float:
        m = self.mods
        binfo = m["values"].BlockInfo(number=0, now=0, sender=m["memory"].Address(1),
                                      msg_value=0, gas_price=0)
        spec_text = job.files.get("spec")
        gc.collect()
        t0 = time.process_time()
        bound = m["binder"].bind_addresses(m["parser"].parse_source(job.program),
                                           job.mem_size)
        if spec_text is not None:
            spec = m["specfile"].parse_spec(spec_text)
            m["runner"].build_world(bound, job.gas, binfo, sets=spec.sets,
                                    symbols=spec.symbols)
        else:
            m["runner"].build_world(bound, job.gas, binfo, arg_writes=job.arg_writes)
        return time.process_time() - t0


@dataclass(frozen=True)
class _Node:
    kind: str
    value: int
    kids: tuple = ()


_BIG = tuple(range(10_000))


def _calibration_kernel() -> int:
    """Fixed pure-Python work in three parts: integer arithmetic; small
    objects, isinstance dispatch, dict lookups and short tuple copies, as an
    interpreter does; and copies of a 10 000-item tuple, as a large memory
    store does. Each workload slows in a slow phase of the machine much as
    the sum of the three does, better than as any one part does."""
    x = 0
    for i in range(40_000):
        x = (x * 31 + i) % 1_000_003
    env = {"a": 1, "b": 2}
    cells = tuple(_Node("int", i) for i in range(64))
    for i in range(600):
        node = _Node("add", i, (_Node("var", i & 7), _Node("const", 3)))
        for kid in node.kids:
            if isinstance(kid, _Node) and kid.kind == "var":
                x += env.get("a", 0) + kid.value
            else:
                x += kid.value
        j = i & 63
        cells = cells[:j] + (_Node("int", x & 255),) + cells[j + 1:]
    big = _BIG
    for i in range(40):
        j = (i * 37) % len(big)
        big = big[:j] + (i,) + big[j + 1:]
    return x + len(cells) + len(big)


def calibration_s() -> float:
    """CPU seconds of one calibration kernel: the machine's speed right now."""
    t0 = time.process_time()
    _calibration_kernel()
    return time.process_time() - t0


def calibrate() -> float:
    """Median of several kernel times, taken before and after a run."""
    return statistics.median(calibration_s() for _ in range(CALIBRATION_REPEATS))


def interleaved(names, rounds_of):
    """Yield (round, job) with workloads alternating job by job."""
    for rnd in itertools.count():
        rounds = {w: rounds_of(w, rnd) for w in names}
        for i in range(ROUND):
            shift = (rnd * ROUND + i) % len(names)
            for w in names[shift:] + names[:shift]:
                yield rnd, rounds[w][i]


def run_timed(runner: JobRunner, names, seed: int, seconds: float) -> dict:
    """Time jobs, each scaled by the kernel times measured on either side of it."""
    res = {w: {"job_s": [], "job_s_raw": [], "setup_s": [], "speed": [], "problems": []}
           for w in names}
    budget = seconds * len(names)
    start = time.perf_counter()
    jobs = interleaved(names, lambda w, rnd: make_round(ROOT, w, seed, rnd))
    cal_before = calibration_s()
    for n, (rnd, job) in enumerate(jobs, 1):
        r = res[job.workload]
        dt, problem = runner.run(job)
        setup = runner.setup_seconds(job)
        cal_after = calibration_s()
        speed = (cal_before + cal_after) / (2 * CAL_REF_S)  # above 1: machine is slow
        cal_before = cal_after
        r["job_s"].append(dt / speed)
        r["job_s_raw"].append(dt)
        r["setup_s"].append(setup / speed)
        r["speed"].append(speed)
        if problem:
            r["problems"].append(problem)
        if n % (ROUND * len(names)) == 0:
            elapsed = time.perf_counter() - start
            if (elapsed >= budget and len(r["job_s"]) >= MIN_JOBS) or elapsed >= CAP * budget:
                break
    return res


def run_traced(runner: JobRunner, names, seed: int, seconds: float) -> dict:
    tracers = {w: Tracer() for w in names}
    res = {w: {"plain": [], "traced": [], "problems": [], "repeats": [],
               "missing": [], "unlisted": []} for w in names}
    budget = seconds * len(names)
    start = time.perf_counter()
    first = {w: make_round(ROOT, w, seed, 0) for w in names}
    jobs = interleaved(names, lambda w, rnd: first[w])
    for n, (rep, job) in enumerate(jobs, 1):
        r, tracer = res[job.workload], tracers[job.workload]
        tracer.logging = rep == 0
        tracer.job = job.index
        for traced in ((False, True) if n % 2 else (True, False)):
            if traced:
                r["missing"] = tracer.install(runner.mods)
            try:
                dt, problem = runner.run(job)
            finally:
                tracer.uninstall()
            r["traced" if traced else "plain"].append(dt)
            if problem:
                r["problems"].append(problem)
        if n % (ROUND * len(names)) == 0:
            for w in names:
                res[w]["repeats"].append(tracers[w].layer_values())
                res[w]["unlisted"] = tracers[w].unlisted_kinds()
                tracers[w].reset()
            elapsed = time.perf_counter() - start
            if (elapsed >= budget and rep + 1 >= MIN_TRACE_REPEATS) or elapsed >= CAP * budget:
                break
    OUT.mkdir(exist_ok=True)
    for w in names:
        path = OUT / f"spans-{w}-seed{seed}.tsv"
        res[w]["spans"] = [str(path.relative_to(ROOT)), tracers[w].write_spans(path)]
    return res


def probe_rss(workload: str, seed: int) -> dict:
    """Peak RSS of a fresh child process that runs one round of the workload."""
    cmd = [sys.executable, str(HERE / "rss_probe.py"), "--workload", workload,
           "--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"rss probe for {workload} ran over {PROBE_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"rss probe for {workload} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def source_revision() -> dict:
    """Git revision where there is one, and a digest of the sources always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            rev = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def stamp(args, names) -> dict:
    ranges = param_ranges()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        **source_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": names,
        "round": ROUND,
        "min_jobs": MIN_JOBS,
        "param_ranges": {w: ranges[w] for w in names},
    }


def end_to_end(r: dict, rss: dict) -> dict:
    times = r["job_s"]
    return {
        "job_s.p50": statistics.median(times),
        "job_s.p90": statistics.quantiles(times, n=10)[-1],
        "setup_s": statistics.median(r["setup_s"]),
        "peak_rss_mb": rss["peak_rss_mb"],
    }


def per_layer(r: dict) -> tuple:
    """(metrics, counts repeat exactly) from the repeats of a traced run."""
    repeats = r["repeats"]
    first = repeats[0]
    counts = [k for k in first if k.endswith(COUNT_SUFFIXES)]
    steady = all(rep[k] == first[k] for rep in repeats for k in counts)
    values = {k: (first[k] if k in counts else statistics.median(rep[k] for rep in repeats))
              for k in first}
    values["trace.overhead"] = statistics.median(r["traced"]) / statistics.median(r["plain"])
    return values, steady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        mods = load_minisol()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    work = OUT / f"work-{os.getpid()}"
    runner = JobRunner(mods, work)
    report = {"stamp": stamp(args, names)}
    try:
        calib_before = calibrate()
        if args.trace:
            res = run_traced(runner, names, args.seed, args.seconds)
        else:
            res = run_timed(runner, names, args.seed, args.seconds)
        calib_after = calibrate()
        report["calibration_s"] = {"before": calib_before, "after": calib_after}
        rss = {} if args.trace else {w: probe_rss(w, args.seed) for w in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in per_layer_metrics()}
    metrics, attempted, failed, correct, short = {}, 0, 0, True, []
    for w in names:
        r = res[w]
        n_jobs = len(r["plain"]) + len(r["traced"]) if args.trace else len(r["job_s"])
        n_failed = len(r["problems"])
        attempted += n_jobs
        failed += n_failed
        detail = {"jobs": n_jobs, "failed": n_failed, "fail_frac": n_failed / n_jobs,
                  "problems": r["problems"][:5]}
        if args.trace:
            values, steady = per_layer(r)
            detail.update(repeats=len(r["repeats"]), counts_repeat=steady,
                          missing_functions=r["missing"], unlisted_kinds=r["unlisted"],
                          spans=r["spans"])
            correct = correct and steady and not r["missing"]
            if len(r["repeats"]) < MIN_TRACE_REPEATS:
                short.append(f"{w}: {len(r['repeats'])} repeats, fewer than "
                             f"{MIN_TRACE_REPEATS}")
        else:
            values = end_to_end(r, rss[w])
            speed = statistics.quantiles(r["speed"], n=4)
            detail.update(rss_probe=rss[w],
                          job_s_raw={"p50": statistics.median(r["job_s_raw"]),
                                     "p90": statistics.quantiles(r["job_s_raw"], n=10)[-1]},
                          speed={"min": min(r["speed"]), "q1": speed[0], "median": speed[1],
                                 "q3": speed[2], "max": max(r["speed"])})
            correct = correct and rss[w]["failed"] == 0
            if n_jobs < MIN_JOBS:
                short.append(f"{w}: {n_jobs} jobs, fewer than {MIN_JOBS}")
        report[w] = detail
        prefix = f"{w}." if len(names) > 1 else ""
        for name, value in values.items():
            if name in units:
                metrics[prefix + name] = {"value": value, "unit": units[name]}
                print(f"{w:16s} {name:44s} {value:14.6g} {units[name]}")
        print(f"{w:16s} {'fail_frac':44s} {n_failed}/{n_jobs}"
              + (f" repeats={len(r['repeats'])} counts_repeat={steady}" if args.trace else ""))
        for problem in r["problems"][:5]:
            print(f"  FAILED {problem}")
        if args.trace and r["missing"]:
            print(f"  NOT TRACED {', '.join(r['missing'])}")
    for line in short:
        print(f"  SHORT {line}: stopped at {CAP} x --seconds")
    report["short"] = short
    correct = correct and failed == 0 and not short
    print("perfbench-report " + json.dumps(report, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
