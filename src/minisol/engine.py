"""Top-level interpreter, step debugger, path exploration and
Hoare-triple checking.

All three ways of running a program are thin callers of the one dispatch
loop, ``stmts.drive``: ``interpret`` runs it to the end, ``step`` runs
one statement, and ``explore`` forks a path wherever the loop stops on a
symbolic branch condition. Two independent budgets bound a run: gas is
spent per dispatched statement, the recursion budget K per nested value
or expression evaluation.

Constraints are discharged by a bounded enumerator over each symbol's
declared finite domain; no external solver is involved. ``verify_triple``
is the one verification route: it computes the initial path's models
once, either the domain product filtered by the precondition or a single
pinned concolic assignment, and every path carries the models that
satisfy its condition; a fork filters its parent's set by the new
constraint. A segment summary is reused only after the same route has
proven it against its segment. Each forked path gets its own copy of the
execution context.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from . import memory as gm
from .memory import MemoryState, MemoryValue
from .stmts import (
    BUDGET,
    ERROR,
    FINISHED,
    NO_STATE,
    PAUSED,
    SYMBOLIC,
    ExecContext,
    SegmentSummary,  # noqa: F401  (re-exported)
    drive,
)
from .symbolic import SymEvalError, SymExpr, collect_symbols, is_symbolic
from .values import Env


@dataclass(frozen=True)
class SymbolicValue:
    """A named unknown with a finite declared domain."""
    name: str
    kind: str = "int"       # "int" or "bool"
    width: int = 64
    signed: bool = False
    lo: int = 0
    hi: int = 0             # inclusive upper bound for int symbols

    def domain(self):
        if self.kind == "bool":
            return (False, True)
        return tuple(range(self.lo, self.hi + 1))


@dataclass(frozen=True)
class Constraint:
    expr: SymExpr
    expected: bool = True

    def holds(self, assignment) -> bool:
        try:
            return bool(self.expr.eval(assignment)) == self.expected
        except SymEvalError:
            return False

    def __str__(self):
        return f"{self.expr}={'T' if self.expected else 'F'}"


@dataclass
class PathState:
    """One execution branch: state, environments, constraints, program.

    ``models`` holds the assignments that satisfy ``condition``, in
    enumeration order. The dicts are shared between paths and must not
    be mutated.
    """
    sigma: MemoryState | None
    env: Env
    fenv: Env
    condition: tuple = ()
    remaining: tuple = ()
    ctx: ExecContext = field(default_factory=ExecContext)
    note: str = ""
    models: tuple = ()

    def condition_key(self) -> tuple:
        return tuple(str(c) for c in self.condition)


@dataclass
class Verdict:
    status: str                 # verified | refuted | exhausted | error
    witness: dict | None = None
    path: PathState | None = None
    diagnostic: str = ""
    paths: tuple = ()


# ---------------------------------------------------------------------------
# Concrete whole-run execution

def interpret(K: int, sigma: MemoryState | None, env: Env, fenv: Env,
              prog, ctx: ExecContext | None = None) -> MemoryState | None:
    """Run a typechecked program with concrete inputs.

    An invalid environment returns the state reached so far; a failed
    dispatch or a symbolic branch condition makes the result absent. The
    state at entry is snapshotted as the restore point for throw.
    """
    if ctx is None:
        ctx = ExecContext(sigma_init=sigma)
    elif ctx.sigma_init is None:
        ctx.sigma_init = sigma
    return drive(K, sigma, env, fenv, ctx, prog).final(ctx)


# ---------------------------------------------------------------------------
# Step debugger

_STEP_NOTES = {FINISHED: "finished", NO_STATE: "stuck: no memory state",
                SYMBOLIC: "stuck: symbolic branch condition"}


def step(ps: PathState, K: int = 1000, emit=None) -> PathState:
    """Execute exactly one statement of a path.

    Stuck situations (invalid environment, failed dispatch, symbolic
    branch) leave the remaining program in place and set a diagnostic
    note. When ``emit`` is given the new memory dump is emitted after
    the step.
    """
    run = drive(K, ps.sigma, ps.env, ps.fenv, ps.ctx, ps.remaining, once=True)
    if run.stop == BUDGET:
        reason = "gas exhausted" if ps.env.gas <= 0 else "environment check failed"
        return replace(ps, note=f"halted: {reason}")
    if run.stop == ERROR:
        return replace(ps, note=f"stuck: {run.error}")
    if run.stop != PAUSED:
        return replace(ps, note=_STEP_NOTES[run.stop])
    out = replace(ps, sigma=run.sigma, env=run.env, remaining=run.remaining,
                  note="throw" if run.halted else "")
    if emit is not None and out.sigma is not None:
        emit(gm.dump(out.sigma))
    return out


# ---------------------------------------------------------------------------
# Bounded constraint enumeration

def assignments(symbols):
    names = [s.name for s in symbols]
    domains = [s.domain() for s in symbols]
    for combo in itertools.product(*domains):
        yield dict(zip(names, combo))


def satisfying_assignments(condition, symbols):
    for asg in assignments(symbols):
        if all(c.holds(asg) for c in condition):
            yield asg


def satisfiable(condition, symbols) -> dict | None:
    for asg in satisfying_assignments(condition, symbols):
        return asg
    return None


def concretize_payload(p, assignment):
    if isinstance(p, gm.BoolPayload) and is_symbolic(p.bit):
        return gm.BoolPayload(bool(p.bit.eval(assignment)))
    if isinstance(p, gm.IntPayload) and is_symbolic(p.value):
        return gm.IntPayload(p.value.eval(assignment), p.width, p.signed)
    if isinstance(p, gm.StructInstance):
        return gm.StructInstance(p.type_addr, tuple(
            concretize_payload(m, assignment) for m in p.members))
    if isinstance(p, gm.MapNode) and p.kv is not None:
        k, v = p.kv
        return gm.MapNode(p.init, (concretize_payload(k, assignment),
                                   concretize_payload(v, assignment)),
                          p.key_type, p.value_type, p.next)
    if isinstance(p, gm.Fid) and p.args:
        return gm.Fid(p.fun, p.receiver, tuple(
            MemoryValue(concretize_payload(a.payload, assignment),
                        a.domain, a.level, a.access, a.occupancy)
            for a in p.args))
    return p


def concretize(sigma: MemoryState, assignment, indices=None,
               memo: dict | None = None) -> MemoryState:
    """Evaluate the symbolic payloads of ``sigma`` under ``assignment``.

    Only the blocks at ``indices`` (by default every block that holds a
    symbol) are rebuilt; all other blocks are kept as the same objects.
    ``memo`` maps ``id`` of a rebuilt block to its result, so two states
    concretized under one assignment with the same memo share the result
    for a block object they share.
    """
    if indices is None:
        indices = symbolic_blocks(sigma)
    if not indices:
        return sigma
    if memo is None:
        memo = {}
    blocks = sigma.blocks
    rebuilt = []
    for i in indices:
        b = blocks[i]
        c = memo.get(id(b))
        if c is None:
            c = memo[id(b)] = MemoryValue(concretize_payload(b.payload, assignment),
                                          b.domain, b.level, b.access, b.occupancy)
        rebuilt.append((i, c))
    return MemoryState(blocks.update(rebuilt), sigma.symbol_table, sigma.alloc_floor)


def _payload_has_symbols(p) -> bool:
    if isinstance(p, gm.BoolPayload):
        return is_symbolic(p.bit)
    if isinstance(p, gm.IntPayload):
        return is_symbolic(p.value)
    if isinstance(p, gm.StructInstance):
        return any(_payload_has_symbols(m) for m in p.members)
    if isinstance(p, gm.MapNode) and p.kv is not None:
        return _payload_has_symbols(p.kv[0]) or _payload_has_symbols(p.kv[1])
    if isinstance(p, gm.Fid) and p.args:
        return any(_payload_has_symbols(a.payload) for a in p.args)
    return False


def symbolic_blocks(sigma: MemoryState) -> tuple:
    """Indices of the blocks whose payload holds a symbol."""
    return tuple(i for i, b in enumerate(sigma.blocks)
                 if _payload_has_symbols(b.payload))


# ---------------------------------------------------------------------------
# Path exploration

def explore(K: int, initial: PathState) -> list[PathState]:
    """Depth-first exploration of every feasible branch.

    When the dispatch loop stops on a symbolic branch the path forks into
    assumed-false and assumed-true children, each keeping the parent
    models (starting from ``initial.models``) that satisfy its branch,
    and its own copy of the context; a child with no model left is
    pruned. Results are merged in path-condition lexicographic order.
    """
    terminals: list[PathState] = []
    stack = [(initial, None)]  # (path, branch its first dispatch assumes)
    while stack:
        ps, assume = stack.pop()
        run = drive(K, ps.sigma, ps.env, ps.fenv, ps.ctx, ps.remaining, assume)
        ps = replace(ps, sigma=run.sigma, env=run.env, remaining=run.remaining,
                     note="throw" if run.halted else ps.note)
        if run.stop == SYMBOLIC:
            for branch in (False, True):
                c = Constraint(run.cond, branch)
                models = tuple(m for m in ps.models if c.holds(m))
                if models:
                    stack.append((replace(ps, condition=ps.condition + (c,),
                                          models=models, ctx=ps.ctx.fork()), branch))
        elif run.stop == ERROR:
            terminals.append(replace(ps, sigma=None, note=f"error: {run.error}"))
        elif run.stop == BUDGET:
            terminals.append(replace(
                ps, note="exhausted" if ps.env.gas <= 0 else "completed"))
        else:
            default = "error" if ps.sigma is None else "completed"
            terminals.append(replace(ps, note=ps.note or default))
    terminals.sort(key=lambda p: p.condition_key())
    return terminals


# ---------------------------------------------------------------------------
# Hoare-triple verification

def verify_triple(pre, prog, post, symbols=(), require=(), K: int = 1000,
                  concolic: dict | None = None, summaries=()) -> Verdict:
    """Check {pre} prog {post} by running every feasible path.

    ``pre`` builds the initial world: called with an assignment it must
    produce a concrete (sigma, env, fenv, ctx) tuple; called with None
    it produces the same world with symbolic payloads standing in for
    the declared symbols. ``post`` is a predicate over (final state,
    initial state). ``require`` lists constraint trees assumed true.

    The models are every assignment of ``symbols`` that satisfies
    ``require``, explored from ``pre(None)``; a ``concolic`` assignment
    pins them to itself and the world to ``pre(concolic)``. A summary
    of ``summaries`` replaces its segment, which must start the program,
    once a nested verification proves, for every model, that the segment
    run from the entry state ends in the state the summary's transform
    gives; a segment anywhere else is an ``error`` verdict.
    """
    symbols = tuple(symbols)
    known = {s.name for s in symbols}
    unknown = set()
    for r in require:
        unknown |= collect_symbols(r) - known
    if unknown:
        return Verdict("error",
                       diagnostic=f"precondition names undeclared symbols: {sorted(unknown)}")
    base_condition = tuple(Constraint(r, True) for r in require)
    if symbols and satisfiable(base_condition, symbols) is None:
        return Verdict("verified", diagnostic="vacuous: precondition unsatisfiable")
    if concolic is None:
        models = tuple(satisfying_assignments(base_condition, symbols))
    else:
        missing = [s.name for s in symbols if s.name not in concolic]
        if missing:
            return Verdict("error", diagnostic=f"concolic values missing: {missing}")
        if not all(c.holds(concolic) for c in base_condition):
            return Verdict("error", diagnostic="concolic assignment violates the precondition")
        models = (concolic,)

    work_prog = tuple(prog)
    for summary in summaries:
        seg = tuple(summary.segment)
        if work_prog[:len(seg)] != seg:
            return Verdict("error", diagnostic="summary segment does not start the "
                                               f"program: {summary.label}")
        proof = verify_triple(pre, seg, _agrees_with(summary.transform), symbols,
                              require, K, concolic)
        if proof.status != "verified":
            return Verdict("error", diagnostic=f"summary failed validation: {summary.label}")
        work_prog = (summary,) + work_prog[len(seg):]

    sigma, env, fenv, ctx = pre(concolic)
    if ctx.sigma_init is None:
        ctx.sigma_init = sigma
    paths = explore(K, PathState(sigma, env, fenv, base_condition, work_prog, ctx,
                                 models=models))
    return _judge(paths, post, pre, prog, K)


def _agrees_with(transform):
    """The post of a summary's proof: the segment ends where ``transform``
    takes the initial state."""
    def post(final: MemoryState, initial: MemoryState) -> bool:
        via = transform(initial)
        return via is not None and final.blocks == via.blocks
    return post


def _judge(paths, post, pre, original_prog, K) -> Verdict:
    for p in paths:
        if p.note.startswith("error"):
            return Verdict("error", path=p, paths=tuple(paths),
                           diagnostic=p.note.partition("error: ")[2] or "no memory state")
        if p.note == "exhausted":
            return Verdict("exhausted", path=p, diagnostic="gas or K budget exhausted",
                           paths=tuple(paths))
    for p in paths:
        init = p.ctx.sigma_init
        final_idx = symbolic_blocks(p.sigma)
        init_idx = symbolic_blocks(init) if init is not None else ()
        asgs = p.models if final_idx or init_idx else p.models[:1] or ({},)
        for asg in asgs:
            memo = {}  # a block the path never wrote is concretized once
            try:
                final_c = concretize(p.sigma, asg, final_idx, memo)
                init_c = concretize(init, asg, init_idx, memo) if init is not None else None
            except SymEvalError as exc:
                return Verdict("error", path=p,
                               diagnostic=f"cannot evaluate the state under {asg}: {exc}",
                               paths=tuple(paths))
            if not post(final_c, init_c):
                witness = _confirm_witness(asg, pre, original_prog, post, K)
                return Verdict("refuted", witness=witness, path=p,
                               diagnostic=f"postcondition fails under {asg}",
                               paths=tuple(paths))
    return Verdict("verified", paths=tuple(paths))


def _confirm_witness(asg, pre, prog, post, K) -> dict:
    """Replay the witness concretely; annotate if the replay disagrees."""
    witness = dict(asg)
    try:
        sigma, env, fenv, ctx = pre(asg if asg else None)
        final = interpret(K, sigma, env, fenv, prog, ctx)
        if final is not None and post(final, ctx.sigma_init):
            witness["_replay_mismatch"] = True
    except Exception as exc:  # replay must never mask the refutation
        witness["_replay_error"] = str(exc)
    return witness


# ---------------------------------------------------------------------------
# Common postconditions

_THROW_OFFSET = gm.RESERVED_LAYOUT.index("0xthrow")  # counted down from the top block


def throw_state_post(final: MemoryState, initial: MemoryState | None) -> bool:
    """Final memory is the entry snapshot plus a raised throw flag."""
    if final is None or initial is None:
        return False
    idx = final.size - 1 - _THROW_OFFSET
    flag = final.blocks[idx].payload
    if not (isinstance(flag, gm.BoolPayload) and flag.bit is True):
        return False
    return all(i == idx for i in final.blocks.diff(initial.blocks))


def unchanged_post(addr: gm.Address):
    def post(final: MemoryState, initial: MemoryState | None) -> bool:
        if final is None or initial is None:
            return False
        return final.blocks[addr.index] == initial.blocks[addr.index]
    return post
