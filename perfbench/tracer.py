"""Spans and counts around minisol's layer functions, from outside the program.

``Tracer.install`` replaces each traced function by a wrapper, in its own
module or class and under every name by which a ``minisol`` module holds
it, and ``uninstall`` puts the originals back. A wrapper records a span
(name, start, end, parent span, job id) and adds the span's duration and
self time to a table keyed by (parent name, name). Self time is the duration
minus the time covered by child spans. Generator functions are not
timed; the values they yield are counted.

All clocks are ``time.process_time``, as in the end-to-end metrics.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (module, function): functions timed as spans.
SPANNED = (
    ("cli", "cli_main"),
    ("parser", "parse_source"),
    ("binder", "bind_addresses"),
    ("specfile", "parse_spec"),
    ("runner", "build_world"),
    ("engine", "verify_triple"),
    ("engine", "explore"),
    ("engine", "interpret"),
    ("engine", "satisfiable"),
    ("engine", "concretize"),
    ("engine", "Constraint.holds"),     # the symbolic layer: SymExpr.eval of a condition
    ("stmts", "exec_statement"),
    ("exprs", "eval_rvalue"),
    ("memory", "read"),
    ("memory", "write"),
    ("memory", "allocate"),
    ("memory", "dump"),
)
# (module, generator function): values yielded are counted.
COUNTED = (
    ("engine", "assignments"),
    ("engine", "satisfying_assignments"),
)
# Statement kinds that the benchmark's workloads dispatch.
KINDS = ("Assign", "Contract", "Fun", "FunCall", "FunStop", "If", "LoopWhile", "Snil",
         "Throw", "Var")

# Metric-name suffixes of counts, which must repeat exactly; the rest are timings.
COUNT_SUFFIXES = (".calls", ".yielded", ".paths")

_HEAD_ARG = 5  # exec_statement(K, sigma, args, env, fenv, head, ...)


def per_layer_metrics() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = list(Tracer().layer_values()) + ["trace.overhead"]
    return [(name, _unit(name), "higher" if name.endswith("hit_ratio") else "lower")
            for name in names]


def _unit(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name.endswith((".s", ".us")):
        return name.rsplit(".", 1)[1]
    return "ratio"


class Tracer:
    def __init__(self):
        self.stack = []         # open spans: [name, start, child time, span id]
        self.table = {}         # (parent name, name) -> [calls, total s, self s]
        self.counts = Counter()
        self.job = -1
        self.logging = False    # keep span records while true
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._saved = []

    # -- installing -----------------------------------------------------

    def install(self, modules: dict) -> list:
        """Wrap the traced functions; returns the ones that do not exist.

        A function is replaced where it is defined (``Cls.meth`` in its
        class) and under any name in any ``minisol`` module that holds it.
        """
        missing = []
        holders = [m for m in list(sys.modules.values())
                   if getattr(m, "__name__", "").startswith("minisol")]
        for mod, fname in SPANNED + COUNTED:
            *cls, attr = fname.split(".")
            owner = getattr(modules[mod], cls[0], None) if cls else modules[mod]
            orig = vars(owner).get(attr) if owner is not None else None
            if not callable(orig):
                missing.append(f"{mod}.{fname}")
                continue
            if (mod, fname) in COUNTED:
                wrapper = self._counting(f"{mod}.{fname}.yielded", orig)
            else:
                wrapper = self._spanning(f"{mod}.{fname}", orig)
            self._patch(owner, attr, orig, wrapper)
            for m in holders:
                for name in [n for n, v in vars(m).items() if v is orig]:
                    self._patch(m, name, orig, wrapper)
        return missing

    def _patch(self, owner, name, orig, wrapper) -> None:
        self._saved.append((owner, name, orig))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for m, fname, orig in reversed(self._saved):
            setattr(m, fname, orig)
        self._saved.clear()

    def _counting(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for value in fn(*args, **kwargs):
                counts[key] += 1
                yield value
        return wrapper

    def _spanning(self, name, fn):
        clock = time.process_time
        stack = self.stack
        tracer = self
        if name == "stmts.exec_statement":
            def name_of(args, kwargs):
                head = args[_HEAD_ARG] if len(args) > _HEAD_ARG else kwargs["head"]
                return f"{name}.{type(head).__name__}"
        else:
            def name_of(args, kwargs):
                return name
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            span = name_of(args, kwargs)
            sid = tracer._open(span) if tracer.logging else -1
            frame = [span, clock(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, end)
            if after is not None:
                after(tracer.counts, result)
            return result
        return wrapper

    # -- recording ------------------------------------------------------

    def _open(self, name) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][3] if self.stack else -1)
        self.span_job.append(self.job)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return len(self.span_name) - 1

    def _close(self, frame, end) -> None:
        name, start, child, sid = frame
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        key = (parent[0] if parent else None, name)
        row = self.table.get(key)
        if row is None:
            row = self.table[key] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child
        if parent is not None:
            parent[2] += dur
        if sid >= 0:
            self.span_start[sid] = start
            self.span_end[sid] = end

    def reset(self) -> None:
        """Forget the table and counts; span records are kept."""
        self.table = {}
        self.counts.clear()

    def write_spans(self, path) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tjob\tname\tstart_s\tend_s\n")
            for sid in range(len(self.span_name)):
                fh.write(f"{sid}\t{self.span_parent[sid]}\t{self.span_job[sid]}\t"
                         f"{self.names[self.span_name[sid]]}\t"
                         f"{self.span_start[sid]!r}\t{self.span_end[sid]!r}\n")
        return len(self.span_name)

    # -- metrics --------------------------------------------------------

    def layer_values(self) -> dict:
        """Per-layer values of what was recorded since the last reset.

        Counts are totals; ``.s`` are self seconds, except
        ``runner.build_world.s`` (the whole set-up phase) and
        ``engine.judge.s`` (verify_triple minus its explore and
        build_world children); ``.us`` are self microseconds per call.
        """
        calls, total, self_s = Counter(), Counter(), Counter()
        under_verify = 0.0
        for (parent, name), (n, tot, own) in self.table.items():
            calls[name] += n
            total[name] += tot
            self_s[name] += own
            if parent == "engine.verify_triple" and name in (
                    "engine.explore", "runner.build_world"):
                under_verify += tot
        for key in [k for k in calls if k.startswith("stmts.exec_statement.")]:
            calls["stmts.exec_statement"] += calls[key]
            self_s["stmts.exec_statement"] += self_s[key]

        def per_call_us(name):
            return 1e6 * self_s[name] / calls[name] if calls[name] else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        v = {
            "engine.concretize.calls": calls["engine.concretize"],
            "engine.concretize.s": self_s["engine.concretize"],
            "engine.Constraint.holds.calls": calls["engine.Constraint.holds"],
            "engine.Constraint.holds.us": per_call_us("engine.Constraint.holds"),
            "engine.judge.s": total["engine.verify_triple"] - under_verify,
            "engine.satisfiable.calls": calls["engine.satisfiable"],
            "engine.satisfiable.s": self_s["engine.satisfiable"],
            "engine.satisfiable.unsat_ratio": ratio(c["engine.satisfiable.unsat"],
                                                    calls["engine.satisfiable"]),
            "engine.assignments.yielded": c["engine.assignments.yielded"],
            "engine.satisfying_assignments.yielded":
                c["engine.satisfying_assignments.yielded"],
            "engine.enum.hit_ratio": ratio(c["engine.satisfying_assignments.yielded"],
                                           c["engine.assignments.yielded"]),
            "engine.explore.s": self_s["engine.explore"],
            "engine.explore.paths": c["engine.explore.paths"],
            "engine.interpret.s": self_s["engine.interpret"],
            "stmts.exec_statement.calls": calls["stmts.exec_statement"],
            "stmts.exec_statement.us": per_call_us("stmts.exec_statement"),
        }
        for kind in KINDS:
            name = f"stmts.exec_statement.{kind}"
            v[f"{name}.calls"] = calls[name]
            v[f"{name}.us"] = per_call_us(name)
        v.update({
            "exprs.eval_rvalue.calls": calls["exprs.eval_rvalue"],
            "exprs.eval_rvalue.us": per_call_us("exprs.eval_rvalue"),
            "memory.read.calls": calls["memory.read"],
            "memory.read.us": per_call_us("memory.read"),
            "memory.write.calls": calls["memory.write"],
            "memory.write.us": per_call_us("memory.write"),
            "memory.allocate.calls": calls["memory.allocate"],
            "memory.dump.s": self_s["memory.dump"],
            "parser.parse_source.s": self_s["parser.parse_source"],
            "binder.bind_addresses.s": self_s["binder.bind_addresses"],
            "specfile.parse_spec.s": self_s["specfile.parse_spec"],
            "runner.build_world.s": total["runner.build_world"],
            "runner.build_world.calls": calls["runner.build_world"],
        })
        return v

    def unlisted_kinds(self) -> list:
        """Statement kinds dispatched that have no metric of their own."""
        return sorted({name.rsplit(".", 1)[1] for _, name in self.table
                       if name.startswith("stmts.exec_statement.")} - set(KINDS))


def _count_paths(counts, result):
    counts["engine.explore.paths"] += len(result)


def _count_unsat(counts, result):
    if result is None:
        counts["engine.satisfiable.unsat"] += 1


_AFTER = {"engine.explore": _count_paths, "engine.satisfiable": _count_unsat}
