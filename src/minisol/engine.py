"""Top-level interpreter, step debugger, path exploration and
Hoare-triple checking.

All three ways of running a program are thin callers of the one dispatch
loop, ``stmts.drive``: ``interpret`` runs it to the end, ``step`` runs
it with one unit of gas, and ``explore`` forks a path wherever the loop
stops on a symbolic branch condition or divisor. Two independent budgets
bound a run: gas is spent per dispatched statement, the recursion budget
K per nested value or expression evaluation.

Constraints are discharged by a bounded enumerator over each symbol's
declared finite domain; no external solver is involved. Only the root
``Models`` searches the domain product, and only on demand. A stopping
dispatch hands ``explore`` its splits, and ``_fork`` partitions the
models by each: a symbolic branch condition, or the divisor guards of a
dispatch that divides by a symbolic tree, whose failing models end on an
``error`` path as a concrete run fails there, so no stored tree fails to
evaluate. Only a statement whose own expressions divide is guarded.
``verify_triple`` is the one verification route. ``holds`` evaluates its
``require`` and expression posts with ``eval_rvalue``, per model where a
symbolic index or key stops it. Its judge asks the ``Post`` for each
path's obligation on the symbolic states: ``True``, ``False`` or a
residual expression evaluated per model, false under a model where an
operator of a post expression fails. Paths share no mutable object:
each carries the state its run entered with (``PathState.init``), which
a throw restores and every child inherits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property, partial, reduce

from . import memory as gm
from .memory import MemoryState, MemoryValue
from .stmts import (
    BUDGET,
    ERROR,
    FINISHED,
    NO_STATE,
    SYMBOLIC,
    drive,
)
from .exprs import eval_rvalue
from .symbolic import SymEvalError, SymExpr, SymOp, is_symbolic, to_symexpr
from .values import Env


@dataclass(frozen=True)
class SymbolicValue:
    """A named unknown with a finite declared domain, typed by its block."""
    name: str
    kind: str = "int"       # "int" or "bool"
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
    """One execution branch: state, environment, constraints, program.

    ``init`` is the state its run entered with, where a throw ends it
    (with None, the state the throw is dispatched in). ``models`` holds
    the assignments that satisfy ``condition``: a ``Models`` value, or a
    tuple of them for ``explore`` to start from. The dicts are shared
    between paths and must not be mutated.
    """
    sigma: MemoryState | None
    env: Env
    condition: tuple = ()
    remaining: tuple = ()
    init: MemoryState | None = None
    note: str = ""
    models: Models | tuple = ()


@dataclass
class Verdict:
    status: str                 # verified | refuted | exhausted | error
    witness: dict | None = None
    diagnostic: str = ""
    paths: tuple = ()


# ---------------------------------------------------------------------------
# Concrete whole-run execution

def interpret(K: int, sigma: MemoryState | None, env: Env, prog) -> MemoryState | None:
    """Run a typechecked program with concrete inputs.

    Spent gas returns the state reached so far; a failed dispatch or a
    symbolic branch or divisor makes the result absent. A throw restores
    ``sigma``, the state at entry.
    """
    return drive(K, sigma, env, sigma, prog).final()


# ---------------------------------------------------------------------------
# Step debugger

_STEP_NOTES = {FINISHED: "finished", NO_STATE: "stuck: no memory state",
               BUDGET: "halted: gas exhausted", SYMBOLIC: "stuck: symbolic branch or divisor"}


def step(ps: PathState, K: int = 1000) -> PathState:
    """Execute exactly one statement of a path: ``drive`` with one unit of gas.

    Gas left unspent means nothing was dispatched (the end, spent gas, a failed
    dispatch, a symbolic branch or divisor): the path stays, with a note. A
    dispatch leaves the path its gas minus one, in the domain the run ended in.
    """
    gas = min(ps.env.gas, 1)
    run = drive(K, ps.sigma, Env(gas, ps.env.domain), ps.init, ps.remaining)
    if run.env.gas == gas:
        return replace(ps, note=f"stuck: {run.error}" if run.stop == ERROR
                       else _STEP_NOTES[run.stop])
    return replace(ps, sigma=run.sigma, env=Env(ps.env.gas - 1, run.env.domain),
                   remaining=run.remaining, note="throw" if run.halted else "")


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


class Models:
    """The models of a path condition in ``itertools.product`` order:
    ``models`` as given, or for the root of a verify the product of
    ``symbols`` filtered by ``condition``, searched only when asked for.
    ``witness`` is the first model. A set equals the tuple of its models.
    """

    def __init__(self, models=None, symbols=(), condition=()):
        if models is not None:
            self.all = tuple(models)
            self.witness = self.all[0] if self.all else None
        self._symbols, self._condition = symbols, condition

    @cached_property
    def witness(self) -> dict | None:
        return satisfiable(self._condition, self._symbols)

    @cached_property
    def all(self):
        return tuple(satisfying_assignments(self._condition, self._symbols))

    def __iter__(self):
        return iter(self.all)

    def __eq__(self, other) -> bool:
        if isinstance(other, (Models, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented


# ---------------------------------------------------------------------------
# Symbolic payloads

def _walk(p):
    """Yield each symbolic expression in payload ``p``, depth first, taking
    back the value to put in its place; return ``p`` rebuilt with those
    values. Iterating lists the expressions; ``concretize_payload`` sends
    their values."""
    if isinstance(p, gm.BoolPayload) and is_symbolic(p.bit):
        return gm.BoolPayload(bool((yield p.bit)))
    if isinstance(p, gm.IntPayload) and is_symbolic(p.value):
        return gm.IntPayload((yield p.value), p.width, p.signed)
    if isinstance(p, gm.StructInstance):
        members = []
        for m in p.members:
            members.append((yield from _walk(m)))
        return gm.StructInstance(p.type_addr, tuple(members))
    if isinstance(p, gm.MapNode) and p.kv is not None:
        return replace(p, kv=((yield from _walk(p.kv[0])), (yield from _walk(p.kv[1]))))
    return p


def _has_symbols(p) -> bool:
    return next(_walk(p), None) is not None


def concretize_payload(p, assignment):
    walk = _walk(p)
    try:
        e = next(walk)
        while True:
            e = walk.send(e.eval(assignment))
    except StopIteration as done:
        return done.value


def _concretize_block(b: MemoryValue, assignment) -> MemoryValue:
    return replace(b, payload=concretize_payload(b.payload, assignment))


def concretize(sigma: MemoryState, assignment, indices=None) -> MemoryState:
    """Evaluate the symbolic payloads of ``sigma`` under ``assignment``.

    Only the blocks at ``indices`` (by default every block that holds a
    symbol) are rebuilt; all other blocks are kept as the same objects.
    """
    if indices is None:
        indices = symbolic_blocks(sigma)
    if not indices:
        return sigma
    blocks = sigma.blocks
    for i in indices:
        blocks = blocks.set(i, _concretize_block(blocks[i], assignment))
    return sigma.with_blocks(blocks)


def symbolic_blocks(sigma: MemoryState) -> tuple:
    """Indices of the blocks whose payload holds a symbol. States share block
    objects between indices, so each distinct one is walked once, as
    ``memory.dump`` renders each once; ``sigma`` keeps every id alive."""
    symbolic = {}  # id of a block -> whether its payload holds a symbol
    for b in sigma.blocks:
        if id(b) not in symbolic:
            symbolic[id(b)] = _has_symbols(b.payload)
    return tuple(i for i, b in enumerate(sigma.blocks) if symbolic[id(b)])


# ---------------------------------------------------------------------------
# Path exploration

def explore(K: int, initial: PathState) -> list[PathState]:
    """Depth-first exploration of every feasible branch.

    The dispatch loop stops on a dispatch that forks, and ``_fork`` splits
    the path's models (from ``initial.models``) by its result, whose
    continuations the children take, so none dispatches it again. A false
    child is explored first, so the terminals come out in path-condition
    order: two share a prefix and then differ at a sibling pair, ``E=F``
    before ``E=T``. Every path restores ``initial.init`` on a throw.
    """
    terminals: list[PathState] = []
    models = initial.models if isinstance(initial.models, Models) else Models(initial.models)
    stack = [PathState(initial.sigma, initial.env, initial.condition, initial.remaining,
                       initial.init, initial.note, models)]
    while stack:
        ps = stack.pop()
        run = drive(K, ps.sigma, ps.env, ps.init, ps.remaining)
        sigma, note = run.sigma, "throw" if run.halted else ps.note
        if run.stop == SYMBOLIC:
            stack += reversed(_fork(ps, run, note, terminals))
            continue
        if run.stop == ERROR:
            sigma, note = None, f"error: {run.error}"
        elif run.stop == BUDGET:
            note = "exhausted"
        else:
            note = note or ("error" if sigma is None else "completed")
        terminals.append(PathState(sigma, run.env, ps.condition, run.remaining, ps.init, note,
                                   ps.models))
    return terminals


def _fork(ps: PathState, run, note: str, terminals: list) -> list:
    """The children of ``ps`` at the splits of ``run.step``, taken in turn, as
    KLEE forks at each branch and checked division (Cadar, Dunbar and
    Engler, OSDI 2008). Tests that the path condition holds are dropped, and
    one it contradicts fails every model; the rest, conjoined, are evaluated
    once per model, and failing to evaluate fails. The passing side gains
    each test and meets the next split. The failing side goes on from the
    split's other remainder, or ends on one ``error`` terminal before the
    dispatch, as an ``ERROR`` stop leaves it. A side with no model is pruned."""
    res, condition, models, children = run.step, ps.condition, ps.models, []
    for split in res.splits:
        known = [next((c.expected for c in condition if c.expr == t), None) for t in split.tests]
        tests = [t for t, k in zip(split.tests, known) if k is None]
        if False in known:
            tests, passing, failing = [], Models(()), models
        elif not tests:
            passing, failing = models, Models(())
        else:
            tree, sides = reduce(lambda a, b: SymOp("&&", (a, b)), tests), ([], [])
            for m in models:
                try:
                    sides[not tree.eval(m)].append(m)
                except SymEvalError:
                    sides[1].append(m)
            passing, failing = Models(sides[0]), Models(sides[1])
        if failing.witness is not None:
            if split.otherwise is None:
                terminals.append(PathState(None, run.env, condition, run.remaining, ps.init,
                                           _error_note(split.values, failing.witness),
                                           failing))
            else:
                negated = condition + ((Constraint(tree, False),) if tests else ())
                children.append(PathState(res.sigma, res.env, negated, split.otherwise,
                                          ps.init, note, failing))
        if passing.witness is None:
            return children
        condition, models = condition + tuple(map(Constraint, tests)), passing
    children.append(PathState(res.sigma, res.env, condition, res.remaining, ps.init, note,
                              models))
    return children


def _error_note(values, m) -> str:
    """Name the first ``(what, tree)`` whose tree raises under ``m``, with the
    error unless it is a condition. A tree raises exactly where one of its
    guards fails, because ``SymOp.eval`` evaluates every operand."""
    for what, tree in values:
        try:
            tree.eval(m)
        except SymEvalError as exc:
            note = f"error: {what} {tree} fails to evaluate under {m}"
            return note if what == "condition" else f"{note}: {exc}"


# ---------------------------------------------------------------------------
# Hoare-triple verification

def verify_triple(pre, prog, post, symbols=(), require=(), K: int = 1000,
                  concolic: dict | None = None) -> Verdict:
    """Check {pre} prog {post} by running every feasible path.

    ``pre`` builds the initial world: called with an assignment it must
    produce a concrete (sigma, env) pair; called with None
    it produces the same world with symbolic payloads standing in for
    the declared symbols. ``post`` is a ``Post``, judged on each path by
    its obligation. ``require`` lists boolean expressions true of its world.

    The models are every assignment of ``symbols`` that satisfies
    ``require``, explored from ``pre(None)``; a ``concolic`` assignment
    pins them to itself and the world to ``pre(concolic)``.

    A world holds each symbol as a bare ``SymVar``, and a division by zero
    ends its models on an ``error`` path where it is evaluated, so no tree
    a path stores fails under its models. A failure left in an obligation
    is a post expression's own operator: false, as a failed ``require`` is.
    """
    symbols = tuple(symbols)
    if concolic is not None:
        missing = [s.name for s in symbols if s.name not in concolic]
        if missing:
            return Verdict("error", diagnostic=f"concolic values missing: {missing}")
    sigma, env = pre(concolic)
    bits = (holds(K, r, sigma) for r in require)
    base_condition = tuple(Constraint(to_symexpr(bit)) for bit in bits if bit is not True)
    if concolic is None:
        models = Models(symbols=symbols, condition=base_condition)
        if models.witness is None:
            return Verdict("verified", diagnostic="vacuous: precondition unsatisfiable")
    elif all(c.holds(concolic) for c in base_condition):
        models = Models((concolic,))
    else:
        return Verdict("error", diagnostic="concolic assignment violates the precondition")

    paths = explore(K, PathState(sigma, env, base_condition, tuple(prog), sigma, models=models))
    return _judge(paths, post, sigma, pre, prog, K)


def _judge(paths, post, init, pre, original_prog, K) -> Verdict:
    paths = tuple(paths)
    for p in paths:
        if p.note.startswith("error"):
            return Verdict("error", _failing_witness(p.models.witness, pre, original_prog, K),
                           diagnostic=p.note.partition("error: ")[2] or "no memory state",
                           paths=paths)
        if p.note == "exhausted":
            return Verdict("exhausted", diagnostic="gas or K budget exhausted", paths=paths)
    for p in paths:
        goal = post.obligation(p.sigma, init)
        if goal is True:
            continue
        for asg in (p.models.witness or {},) if goal is False else p.models:
            try:
                ok = goal is not False and goal.eval(asg)
            except SymEvalError:
                ok = False
            if not ok:
                witness = _confirm_witness(asg, pre, original_prog, post, K)
                return Verdict("refuted", witness=witness, paths=paths,
                               diagnostic=f"postcondition fails under {asg}")
    return Verdict("verified", paths=paths)


def _confirm_witness(asg, pre, prog, post, K) -> dict:
    """Replay the witness concretely; annotate if the replay disagrees."""
    witness = dict(asg)
    try:
        sigma, env = pre(asg if asg else None)
        final = interpret(K, sigma, env, prog)
        if final is not None and post(final, sigma):
            witness["_replay_mismatch"] = True
    except Exception as exc:  # replay must never mask the refutation
        witness["_replay_error"] = str(exc)
    return witness


def _failing_witness(asg, pre, prog, K) -> dict | None:
    """``asg`` if a concrete replay under it also ends without a state."""
    try:
        sigma, env = pre(asg if asg else None)
        return dict(asg) if interpret(K, sigma, env, prog) is None else None
    except Exception:  # a replay that raises confirms nothing
        return None


# ---------------------------------------------------------------------------
# Postconditions as obligations

class Post:
    """A postcondition over (final, initial) states, written once as rules.

    A rule maps the two states to ``True``, ``False`` or a residual
    ``SymExpr`` that must hold under every model of the path, and
    ``obligation`` conjoins the rules. On concrete states every rule gives
    a constant; calling the post asks whether the obligation is ``True``.
    """

    def __init__(self, *rules):
        self.rules = rules

    def obligation(self, final: MemoryState | None, initial: MemoryState | None):
        return final is not None and _conjoin(rule(final, initial) for rule in self.rules)

    def __call__(self, final: MemoryState | None, initial: MemoryState | None) -> bool:
        return self.obligation(final, initial) is True


def _conjoin(goals):
    residual = True
    for goal in goals:
        if goal is False:
            return False
        if goal is not True:
            residual = goal if residual is True else SymOp("&&", (residual, goal))
    return residual


@dataclass(frozen=True)
class _SameBlock(SymExpr):
    """Residual: two blocks that differ in symbolic payloads are equal."""
    a: MemoryValue
    b: MemoryValue

    def eval(self, assignment):
        return _concretize_block(self.a, assignment) == _concretize_block(self.b, assignment)


def _same_block(a: MemoryValue, b: MemoryValue):
    if a is b or a == b:
        return True
    return _SameBlock(a, b) if _has_symbols(a.payload) or _has_symbols(b.payload) else False


@dataclass(frozen=True)
class _Concretized(SymExpr):
    """Residual: ``check`` holds on ``state`` with the blocks at ``indices``
    concretized under the model."""
    check: object
    state: MemoryState
    indices: tuple

    def eval(self, assignment):
        return self.check(concretize(self.state, assignment, self.indices))


def throw_state(final: MemoryState, initial: MemoryState | None):
    """Final memory is the entry snapshot plus a raised throw flag."""
    idx = final.addr_of("0xthrow").index
    if initial is None or getattr(final.blocks[idx].payload, "bit", None) is not True:
        return False
    return _conjoin(_same_block(final.blocks[i], initial.blocks[i])
                    for i in final.blocks.diff(initial.blocks) if i != idx)


def unchanged(index: int, final: MemoryState, initial: MemoryState | None):
    """The block at ``index`` is the one the entry state holds."""
    return initial is not None and _same_block(final.blocks[index], initial.blocks[index])


def holds(K: int, e, final: MemoryState, _initial=None):
    """Boolean ``e`` on ``final`` as a rule: ``True``, ``False`` or a residual,
    which evaluates ``e`` on ``final`` concretized per model where it fails
    over the symbols. A concrete failure is ``False``, as a revert excludes a run."""
    v = eval_rvalue(K, e, final, Env(0, final.addr_of("0xglobal")))
    bit = None if v is None else getattr(v.payload, "bit", None)
    if bit is None and (indices := symbolic_blocks(final)):
        return _Concretized(partial(holds, K, e), final, indices)
    return False if bit is None else bit


throw_state_post = Post(throw_state)
