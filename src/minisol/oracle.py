"""Independent relational semantics for the core statement subset.

This is a deliberately separate implementation used to cross-check the
executable interpreter: a small-step machine built by explicit rule
application, sharing nothing with the statement and expression layers
above the raw memory store. Supported subset: declarations of integers
and booleans, scalar assignments, branches, while loops, skip, throw and
return. A declaration writes one block, so an array or mapping
declaration is outside the subset.

``check_simulation`` runs a corpus through both semantics and reports
any program whose final optional state differs, together with the first
step at which the traces diverge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from . import memory as gm
from .memory import BoolPayload, IntPayload, MemoryState, MemoryValue, Undef
from .syntax import (
    Assign,
    Ebop,
    Econst,
    Euop,
    Evar,
    If,
    LoopWhile,
    Returns,
    Snil,
    Tbool,
    Throw,
    Tint,
    Var,
    Vbool,
    Vint,
)
from .values import Env

# The budgets of a differential run: the executable side's K, the gas of
# each program's environment, and the report corpus's memory size.
K, GAS, MEM_SIZE = 200, 2000, 64


@dataclass
class RelTrace:
    steps: list = field(default_factory=list)  # (statement, state after)

    def append(self, stmt, sigma):
        self.steps.append((stmt, sigma))


def _mask(width: int) -> int:
    return (1 << width) - 1


def _norm(v: int, width: int, signed: bool) -> int:
    v &= _mask(width)
    if signed and v >> (width - 1):
        v -= 1 << width
    return v


def _div_toward_zero(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r != 0 and (a ^ b) < 0:
        q += 1
    return q


def _rem_toward_zero(a: int, b: int) -> int:
    return a - _div_toward_zero(a, b) * b


def _rval(e, sigma: MemoryState, env: Env):
    """Relational value-of: payload or None, concrete only."""
    if isinstance(e, Econst):
        v = e.value
        if isinstance(v, Vbool):
            return BoolPayload(v.bit)
        if isinstance(v, Vint):
            return IntPayload(_norm(v.value, v.width, v.signed), v.width, v.signed)
        return None
    if isinstance(e, Evar):
        if e.addr is None:
            return None
        block = gm.read(sigma, e.addr, "chck", env)
        if block is None:
            return None
        return block.payload
    if isinstance(e, Ebop):
        a = _rval(e.left, sigma, env)
        b = _rval(e.right, sigma, env)
        if a is None or b is None:
            return None
        return _apply_bop(e.op, a, b)
    if isinstance(e, Euop):
        a = _rval(e.operand, sigma, env)
        if a is None:
            return None
        if e.op == "!" and isinstance(a, BoolPayload) and isinstance(a.bit, bool):
            return BoolPayload(not a.bit)
        if e.op == "neg" and isinstance(a, IntPayload) and a.signed \
                and isinstance(a.value, int):
            return IntPayload(_norm(-a.value, a.width, a.signed), a.width, a.signed)
        return None
    return None


def _apply_bop(op, a, b):
    if isinstance(a, IntPayload) and isinstance(b, IntPayload):
        if (a.width, a.signed) != (b.width, b.signed):
            return None
        if not isinstance(a.value, int) or not isinstance(b.value, int):
            return None
        x, y = a.value, b.value
        if op in ("+", "-", "*", "/", "%"):
            if op == "+":
                r = x + y
            elif op == "-":
                r = x - y
            elif op == "*":
                r = x * y
            elif op == "/":
                if y == 0:
                    return None
                r = _div_toward_zero(x, y)
            else:
                if y == 0:
                    return None
                r = _rem_toward_zero(x, y)
            return IntPayload(_norm(r, a.width, a.signed), a.width, a.signed)
        table = {"<": x < y, ">": x > y, "<=": x <= y, ">=": x >= y,
                 "==": x == y, "!=": x != y}
        if op in table:
            return BoolPayload(table[op])
        return None
    if isinstance(a, BoolPayload) and isinstance(b, BoolPayload):
        if not isinstance(a.bit, bool) or not isinstance(b.bit, bool):
            return None
        table = {"&&": a.bit and b.bit, "||": a.bit or b.bit,
                 "==": a.bit == b.bit, "!=": a.bit != b.bit}
        if op in table:
            return BoolPayload(table[op])
        return None
    return None


CORE_KINDS = (Var, Assign, If, LoopWhile, Snil, Throw, Returns)


def in_core_subset(prog) -> bool:
    def stmt_ok(s):
        if not isinstance(s, CORE_KINDS):
            return False
        if isinstance(s, Var):
            return isinstance(s.decl.ltype, (Tint, Tbool))
        if isinstance(s, If):
            return all(stmt_ok(x) for x in s.then) and all(stmt_ok(x) for x in s.orelse)
        if isinstance(s, LoopWhile):
            return all(stmt_ok(x) for x in s.body)
        return True
    return all(stmt_ok(s) for s in prog)


def relational_eval(sigma: MemoryState, env: Env, prog
                    ) -> tuple[MemoryState, RelTrace] | None:
    """Small-step derivation; absent on the same failures as the
    executable semantics."""
    trace = RelTrace()
    snapshot = sigma
    remaining = list(prog)
    while True:
        if not remaining:
            return sigma, trace
        if env.gas <= 0:
            return sigma, trace
        env = replace(env, gas=env.gas - 1)
        head = remaining.pop(0)

        if isinstance(head, Snil):
            trace.append(head, sigma)
            continue

        if isinstance(head, Var):
            decl = head.decl
            if decl.addr is None or not 0 <= decl.addr.index < sigma.size:
                return None
            if sigma.blocks[decl.addr.index].occupancy == gm.OCCUPY:
                return None
            fresh = MemoryValue(Undef(), domain=env.domain, access=head.access or gm.PUBLIC,
                                occupancy=gm.OCCUPY)
            sigma = gm.write(sigma, decl.addr, fresh, "dir")
            trace.append(head, sigma)
            continue

        if isinstance(head, Assign):
            value = _rval(head.rhs, sigma, env)
            if value is None:
                return None
            if not isinstance(head.lhs, Evar) or head.lhs.addr is None:
                return None
            out = gm.write(sigma, head.lhs.addr,
                           MemoryValue(value, domain=env.domain),
                           "chck", env)
            if out is None:
                return None
            sigma = out
            trace.append(head, sigma)
            continue

        if isinstance(head, If):
            cond = _rval(head.cond, sigma, env)
            if not isinstance(cond, BoolPayload) or not isinstance(cond.bit, bool):
                return None
            remaining = list(head.then if cond.bit else head.orelse) + remaining
            trace.append(head, sigma)
            continue

        if isinstance(head, LoopWhile):
            cond = _rval(head.cond, sigma, env)
            if not isinstance(cond, BoolPayload) or not isinstance(cond.bit, bool):
                return None
            if cond.bit:
                remaining = list(head.body) + [head] + remaining
            trace.append(head, sigma)
            continue

        if isinstance(head, Throw):
            names = gm.reserved_addresses(snapshot.size)
            raised = MemoryValue(BoolPayload(True), domain=names["0xglobal"],
                                 access=gm.PUBLIC, occupancy=gm.OCCUPY)
            sigma = gm.write(snapshot, names["0xthrow"], raised, "dir")
            trace.append(head, sigma)
            return sigma, trace

        if isinstance(head, Returns):
            if any(_rval(e, sigma, env) is None for e in head.values):
                return None
            trace.append(head, sigma)
            continue

        return None


@dataclass
class Divergence:
    index: int
    detail: str
    first_step: int = -1


@dataclass
class SimulationReport:
    total: int = 0
    divergences: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _payloads(sigma: MemoryState):
    return tuple(b.payload for b in sigma.blocks)


def check_simulation(corpus, make_state, executable=None) -> SimulationReport:
    """Differential run of the relational and executable semantics.

    ``make_state`` builds the seeded initial state and environment for
    one corpus item. Final optional states must agree; disagreement is
    localized to the first differing trace step. ``executable`` may
    inject a replacement interpreter (used by the mutation fixtures).
    """
    from .engine import interpret

    run_exe = executable if executable is not None else interpret
    report = SimulationReport(total=len(corpus))
    for idx, prog in enumerate(corpus):
        if not in_core_subset(prog):
            report.divergences.append(Divergence(idx, "program outside core subset"))
            continue
        sigma, env = make_state(idx)
        rel = relational_eval(sigma, env, prog)
        exe = run_exe(K, sigma, env, prog)
        rel_final = rel[0] if rel is not None else None
        if rel_final is None and exe is None:
            continue
        if (rel_final is None) != (exe is None):
            report.divergences.append(Divergence(
                idx, f"one side absent: relational={rel_final is not None}, "
                     f"executable={exe is not None}"))
            continue
        if _payloads(rel_final) != _payloads(exe):
            step_no = _first_divergent_step(rel[1], prog, sigma, env, run_exe)
            report.divergences.append(Divergence(
                idx, "final states differ", step_no))
    return report


def _first_divergent_step(trace: RelTrace, prog, sigma, env, run_exe) -> int:
    """Localize a divergence to the first dispatched statement whose
    post-state differs (0-based). Gas bounds dispatched statements
    exactly, so running the executable with gas i yields its state after
    the first i statements."""
    for i, (_stmt, rel_sigma) in enumerate(trace.steps):
        bounded = replace(env, gas=i + 1)
        exe_sigma = run_exe(K, sigma, bounded, prog)
        if exe_sigma is None or _payloads(exe_sigma) != _payloads(rel_sigma):
            return i
    return len(trace.steps)


def default_corpus(count: int = 100, seed: int = 20240601):
    """The seeded random core-subset corpus used by the reports."""
    from .proggen import generate_program

    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        corpus.append(generate_program(rng.randrange(1 << 30), length=6))
    return corpus


def run_report(count: int = 100, seed: int = 20240601) -> SimulationReport:
    from .stdlib import fresh_memory
    from .values import initial_env

    corpus = default_corpus(count, seed)

    def make_state(_idx):
        sigma = fresh_memory(MEM_SIZE)
        return sigma, initial_env(GAS, sigma.addr_of("0xglobal"))

    return check_simulation(corpus, make_state)
