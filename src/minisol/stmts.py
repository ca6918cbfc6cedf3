"""Statement-layer semantics: the one dispatch loop over statement lists.

Execution is head-of-list: each dispatched statement costs one unit of
gas, so one step is a run with one unit of gas. It transforms the state
and may rewrite the remaining statement list (branches prepend the chosen
arm, loops re-enqueue themselves, calls unfold the stored body). Each
construct has one statement form and one rule: ``LoopWhile`` is the only
loop statement (a source ``for`` arrives as its init step and a while
whose body ends with the post step), ``Returns`` the only return, ``Fun``
the only declaration of a callable (a modifier is a function returning
one ``bool``), and ``FunCall`` the only statement that calls; an
assignment never does.
A call carries its own return frame: the body is followed by a ``FunStop``
naming the caller's domain, which restores that domain when dispatched,
and a ``Returns`` drops the rest of the body through that ``FunStop``.
A call runs each modifier call of its function before the body, and a
``ModifierGuard`` after each judges it. ``drive`` is the only dispatch
loop: it spends gas, dispatches the head through ``exec_statement`` and
reports why it stopped (see ``Run``). The concrete interpreter, the step
debugger and the path-forking explorer in the engine module are thin
callers of it.

``exec_statement`` is the one per-dispatch entry point. It calls the
head's rule, a closure ``(K, sigma, env, rest)`` that the compiler
``_RULES`` holds for the head's exact type, one per statement class,
builds on the node's first dispatch and keeps on it (Feeley and Lapalme,
"Using closures for code generation", 1987). Paths share nodes, so a rule
holds node data only, as default arguments: the closures of its
expressions, its target's writer, its remainders. A rule returns one of three
shapes: the plain tuple ``(sigma, env, remaining)`` to go on, its error
message (a ``str``) to fail, or a ``StepResult`` to fork on its ``splits``
or, with none, to throw; ``drive`` tells them apart by their exact type.
A throw ends the run in ``init``, the state ``drive`` is told the run
entered with, with the throw flag raised; no rule reads that state.
A symbolic branch condition, and a value that divides by a symbolic
divisor, make ``Split``s of the models, and ``drive`` stops before such a
dispatch, so the explorer forks there. Only a statement that divides, by
its own expressions, is checked: its mark is computed once and kept on
the node. Any other symbolic tree it evaluates was read from memory,
where the dispatch that stored it checked it, or is a bare symbol of the
initial world, which cannot fail.
An assignment calls its right side's closure once K is checked; a scalar
target's block is written by the closure ``memory.checked_writer`` builds
for it, which refuses a mapping head before the validated write. A
mapping entry target is stored by ``_map_store``, which walks each chain
once and links a missing key at the chain's tail, and any other target
at the address its l-value gives. A concrete branch or loop condition
builds only the remainder it takes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

from . import memory as gm
from .layout import array_layout
from .memory import (
    Address,
    BoolPayload,
    ContractInfo,
    Fid,
    FunctionInfo,
    IntPayload,
    MapNode,
    MemoryState,
    MemoryValue,
    StructTypeInfo,
    Undef,
)
from .exprs import eval_lvalue, eval_rvalue, rvalue_closure
from .symbolic import SymExpr, SymOp, is_symbolic
from .syntax import (
    Assign,
    Contract,
    Econst,
    Efun,
    Evar,
    Fun,
    FunCall,
    FunStop,
    If,
    LoopWhile,
    LStatement,
    ModifierGuard,
    Returns,
    Snil,
    StructDecl,
    Tarray,
    Throw,
    Tmap,
    Var,
    Vmap,
    array_dims,
    divides_by_nonliteral,
)
from .values import Env, locate_map_node

__all__ = [
    "Split", "StepResult", "Run", "init_array", "init_var", "exec_statement", "drive",
]


# ---------------------------------------------------------------------------
# Variable and array initialization

def _write_payload(sigma, addr, payload, env, access=gm.PUBLIC):
    value = MemoryValue(payload, domain=env.domain, access=access, occupancy=gm.OCCUPY)
    return gm.write(sigma, addr, value, "dir")


@lru_cache(maxsize=None)
def _leaf_template(domain):
    return MemoryValue(Undef(), domain=domain, access=gm.PUBLIC, occupancy=gm.OCCUPY)


@lru_cache(maxsize=None)
def _header_template(dim, group, domain):
    return MemoryValue(gm.ArrayGroup(dim, group), domain=domain, access=gm.PUBLIC,
                       occupancy=gm.OCCUPY)


@lru_cache(maxsize=None)
def _group_run(suffix: tuple, domain) -> tuple:
    """Blocks of one group whose own dimension sizes are ``suffix``.

    A final-dimension group is a single default leaf; any other group is
    its header (carrying the sibling count and group size) followed by
    the runs of its subgroups. Runs are immutable and depend only on the
    dimension suffix, so they are shared across arrays and calls.
    """
    if len(suffix) == 1:
        return (_leaf_template(domain),)
    group_size = array_layout(suffix).group_sizes[0]
    header = _header_template(suffix[0], group_size, domain)
    return (header,) + _group_run(suffix[1:], domain) * suffix[1]


def init_array(K: int, sigma: MemoryState, base: Address, arr_type,
               env: Env) -> MemoryState | None:
    """Depth-first tree initialization of an allocated array run.

    Every non-final dimension group gets a header block at its base;
    final-dimension elements become default leaves. Budget K is spent
    one unit per written block, checked up front.
    """
    dims, _final = array_dims(arr_type)
    if not dims:
        return None
    layout = array_layout(dims)
    total = layout.array_size
    if not 0 <= base.index <= sigma.size - total:
        return None
    if K < total:
        return None
    run = _group_run(tuple(dims), env.domain)
    return sigma.with_blocks(sigma.blocks.splice(base.index, run * dims[0]))


def init_var(sigma: MemoryState, env: Env, access, ltype, addr: Address,
             K: int = 0) -> MemoryState | None:
    """First write of a declared block: default value, declared access. An
    array spends K as ``init_array`` does; a scalar or mapping head reads no K."""
    if addr is None or not 0 <= addr.index < sigma.size:
        return None
    if sigma.blocks[addr.index].occupancy == gm.OCCUPY:
        return None
    if isinstance(ltype, Tarray):
        # init_array writes every block of the run, so none is marked first
        n = array_layout(array_dims(ltype)[0]).array_size
        if not gm.is_free_run(sigma, addr, n):
            return None
        return init_array(K, sigma, addr, ltype, env)
    payload = MapNode(init=addr) if isinstance(ltype, Tmap) else Undef()
    return _write_payload(sigma, addr, payload, env, access or gm.PUBLIC)


# ---------------------------------------------------------------------------
# Single-statement dispatch

class Split(NamedTuple):
    """Models under which every tree in ``tests`` holds go on; the others take
    ``otherwise`` or, when None, end on an error naming one of ``values``."""
    tests: tuple
    values: tuple = ()   # ``(what, tree)`` for each value whose divisors it guards
    otherwise: tuple | None = None


@dataclass(slots=True)
class StepResult:
    """A dispatch that forks on its ``splits``, or with none throws."""
    sigma: MemoryState | None
    env: Env
    remaining: tuple
    splits: tuple = ()      # the ``Split``s to fork on, in order, before going on


def _with_divides(res, head: LStatement, what: str, values) -> tuple | str | StepResult:
    """``res``, or a ``StepResult`` whose first split tests the ``SymOp.guards``
    of each evaluated value that has them: it divides by a symbol.

    Only a statement that divides (``head.may_divide``, kept on the node) can
    build a new guard; any other tree was read from memory, where its guards
    were checked when it was stored. The mark is read once a value is a
    ``SymOp``, so a concrete dispatch never reads it."""
    divides, guards = (), {}
    for v in values:
        p = v.payload
        tree = p.value if type(p) is IntPayload else getattr(p, "bit", None)
        if type(tree) is SymOp:
            mark = head.may_divide
            if mark is None:
                mark = head.may_divide = divides_by_nonliteral(head)
            if not mark:
                return res
            if tree.guards:
                divides += ((what, tree),)
                guards |= dict.fromkeys(tree.guards)
    if not divides or type(res) is str:  # a failed dispatch stays failed
        return res
    res = StepResult(*res) if type(res) is tuple else res
    return replace(res, splits=(Split(tuple(guards), divides), *res.splits))


def exec_statement(K: int, sigma: MemoryState, env: Env, head: LStatement,
                   rest: tuple) -> tuple | str | StepResult:
    """Dispatch one statement by its rule, which the compiler ``_RULES`` holds
    for its exact type built on its first dispatch. Gas must already be spent.
    """
    return (head.rule or _rule(head))(K, sigma, env, rest)


def _rule(head: LStatement):
    """The rule of ``head``, compiled once and kept on it."""
    compiler = _RULES.get(type(head))
    if compiler is None:
        return _fails(f"unknown statement {type(head).__name__}")
    rule = head.rule = compiler(head)
    return rule


def _fails(message: str):
    """The rule of a statement whose every dispatch fails with ``message``."""
    return lambda _K, _sigma, _env, _rest, message=message: message


def _goes_on(_K, sigma, env, rest) -> tuple:
    return sigma, env, rest


def _throws(_K, sigma, env, _rest) -> StepResult:
    return StepResult(sigma, env, ())


def _thrown(sigma: MemoryState) -> MemoryState:
    """``sigma`` with the throw flag raised: where a throw ends its run."""
    names = gm.reserved_addresses(sigma.size)
    flag = MemoryValue(BoolPayload(True), names["0xglobal"], gm.PUBLIC, gm.OCCUPY)
    return gm.write(sigma, names["0xthrow"], flag, "dir")


def _compile_fun_stop(head: FunStop):
    return lambda _K, sigma, env, rest, caller=head.caller: (
        sigma, _frame_end(env, caller), rest)


def _frame_end(env, caller: Address | None) -> Env:
    """The environment after a frame ends: back in its ``caller``'s domain."""
    return env if caller is None else Env(env.gas, caller)


def _declaration(what: str, addr: Address, info):
    """The rule of a declaration that stores ``info`` at ``addr``."""
    def declare(_K, sigma, env, rest, what=what, addr=addr, info=info):
        sig = _write_payload(sigma, addr, info, env)
        if sig is None:
            return f"{what} block {addr} out of range"
        return sig, env, rest
    return declare


def _compile_contract(head: Contract):
    return _declaration("contract", head.name,
                        ContractInfo(head.name, tuple(head.members), tuple(head.inherits)))


def _compile_struct_decl(head: StructDecl):
    return _declaration("struct", head.type_addr,
                        StructTypeInfo(head.type_addr, tuple(head.members)))


def _compile_var(head: Var):
    decl = head.decl
    if decl.addr is None:
        return _fails("declaration without an address")

    def var(K, sigma, env, rest, access=head.access, ltype=decl.ltype, addr=decl.addr):
        sig = init_var(sigma, env, access, ltype, addr, K=K)
        if sig is None:
            return f"cannot initialize block {addr}"
        return sig, env, rest
    return var


def _compile_if(head: If):
    return _branch(head, tuple(head.then), tuple(head.orelse),
                   "branch condition failed to evaluate")


def _compile_while(head: LoopWhile):
    return _branch(head, (*head.body, head), (), "loop condition failed to evaluate")


def _branch(head, taken: tuple, skipped: tuple, failed: str):
    """The rule of an If or a loop: decide the condition and go on with
    ``taken`` or ``skipped`` before the rest, building only the remainder
    it chooses.

    A symbolic condition decides neither: it is a split between the two
    remainders, so each side goes on without dispatching it again.
    """
    def branch(K, sigma, env, rest, head=head, cond=rvalue_closure(head.cond), taken=taken,
               skipped=skipped, failed=failed):
        v = cond(K, sigma, env) if K > 0 else None
        bit = v.payload.bit if v is not None and type(v.payload) is BoolPayload else None
        if bit is None:
            return failed
        if isinstance(bit, SymExpr):
            res = StepResult(sigma, env, taken + rest,
                             splits=(Split((bit,), otherwise=skipped + rest),))
            return _with_divides(res, head, "condition", (v,))
        return sigma, env, (taken if bit else skipped) + rest
    return branch


def _compile_return(head: Returns):
    """Write the returned values, then end the frame: drop the rest of the
    body through its ``FunStop`` and continue in the caller's domain. A
    return outside any call has no ``FunStop`` after it and continues."""
    def ret(K, sigma, env, rest, head=head, exprs=tuple(head.values)):
        values = [eval_rvalue(K, e, sigma, env) for e in exprs]
        if any(v is None for v in values):
            return "return value failed to evaluate"
        sig = _write_returns(sigma, env, values)
        if sig is None:
            return "return slot is not writable"
        for i, stmt in enumerate(rest):
            if type(stmt) is FunStop:
                return _with_divides((sig, _frame_end(env, stmt.caller), rest[i + 1:]),
                                     head, "return value", values)
        return _with_divides((sig, env, rest), head, "return value", values)
    return ret


def _write_returns(sigma, env, values) -> MemoryState | None:
    """Store ``values`` in the return slots of the executing function,
    the one the environment's domain names. A top-level return stores
    nothing."""
    i = env.domain.index
    info = sigma.blocks[i].payload if 0 <= i < sigma.size else None
    if not isinstance(info, FunctionInfo) or info.ret_addr is None:
        return sigma
    sig = sigma
    for k, v in enumerate(values):
        sig = gm.write(sig, Address(info.ret_addr.index + k), v, "chck", env)
        if sig is None:
            return None
    return sig


def _compile_call(head: FunCall):
    """Call the callee's function with the call's own arguments, evaluated in
    the caller. A function named by the call has its address on the node;
    any other callee is evaluated to a function value on each dispatch."""
    callee = head.callee
    if isinstance(callee, Efun) and callee.addr is None:
        return _fails("call target has no address")

    def call(K, sigma, env, rest, head=head, callee=callee, args=tuple(head.args),
             target=callee.addr if isinstance(callee, Efun) else None):
        if target is None:
            cv = eval_rvalue(K, callee, sigma, env)
            if cv is None or not isinstance(cv.payload, Fid) or cv.payload.fun is None:
                return "call target is not a function value"
            target = cv.payload.fun
        arg_values = [eval_rvalue(K, a, sigma, env) for a in args]
        if any(v is None for v in arg_values):
            return "call argument failed to evaluate"
        return _with_divides(_enter_call(sigma, env, target, arg_values, rest),
                             head, "call argument", arg_values)
    return call


def _enter_call(sigma, env, target: Address, arg_values, rest) -> tuple | str:
    """Bind the arguments and continue with the guarded modifier calls and the
    stored body, whose trailing ``FunStop`` returns to the caller's domain."""
    block = gm.read(sigma, target, "chck", env)
    if block is None or not isinstance(block.payload, FunctionInfo):
        return f"no function stored at {target}"
    info = block.payload
    sig = sigma
    if info.params is not None:
        if len(info.params) != len(arg_values):
            return f"call arity {len(arg_values)} != {len(info.params)}"
        for p, v in zip(info.params, arg_values):
            target_block = gm.read(sig, p.addr, "dir")
            if target_block is None:
                return "parameter block out of range"
            sig = gm.write(sig, p.addr, MemoryValue(v.payload, target_block.domain,
                                                    target_block.access, gm.OCCUPY), "dir")
    guards = [s for call in info.modifiers for s in (call, ModifierGuard(sig, call))]
    return (sig, Env(env.gas, target),
            (*guards, *info.body[:-1], FunStop(caller=env.domain), *rest))


def _init_return_slots(sigma, env, ret_addr: Address, returns) -> MemoryState | None:
    count = max(1, len(returns))
    sig = sigma
    for i in range(count):
        addr = Address(ret_addr.index + i)
        if not 0 <= addr.index < sig.size:
            return None
        block = sig.blocks[addr.index]
        if block.occupancy == gm.OCCUPY and not isinstance(block.payload, Undef):
            return None
        sig = _write_payload(sig, addr, Undef(), env)
    return sig


def _compile_fun_decl(head: Fun):
    """Store a function with its modifier calls."""
    body = tuple(head.body)
    if not body or not isinstance(body[-1], FunStop):
        body = body + (FunStop(),)
    info = FunctionInfo(tuple(head.returns), tuple(head.params), head.ret_addr, body,
                        tuple(head.modifiers))

    def fun(K, sigma, env, rest, name=head.name, info=info):
        sig = sigma
        for p in info.params:
            sig = init_var(sig, env, None, p.ltype, p.addr, K=K)
            if sig is None:
                return "function parameter block not free"
        if info.ret_addr is not None:
            sig = _init_return_slots(sig, env, info.ret_addr, info.returns)
            if sig is None:
                return "function return slots not available"
        sig = _write_payload(sig, name, info, env)
        if sig is None:
            return "function block out of range"
        return sig, env, rest
    return fun


def _compile_modifier_guard(head: ModifierGuard):
    """Judge the modifier call just run, which may write only the flag and its
    own parameters and return slot: a raised flag continues from the state
    ``before`` the call, with the flag down; a lowered one throws; a symbolic one forks."""
    before = head.before
    if before is None:
        return _fails("modifier guard without a saved state")
    callee = head.call.callee
    info = before.blocks[callee.addr.index].payload if isinstance(callee, Efun) else None
    own = [p.addr for p in info.params or ()] + [info.ret_addr] \
        if isinstance(info, FunctionInfo) else ()

    def guard(_K, sigma, env, rest, before=before,
              flag=gm.reserved_addresses(before.size)["0xmodifier"].index,
              own=frozenset(a.index for a in own if a is not None)):
        bit = _modif_check(before, sigma, flag, own)
        if bit is None:
            return "modifier touched memory outside its flag"
        if isinstance(bit, SymExpr):
            return StepResult(before, env, rest, splits=(Split((bit,), otherwise=(Throw(),)),))
        return before, env, rest if bit else (Throw(),)
    return guard


def _modif_check(before: MemoryState, after: MemoryState, flag_idx: int, own=()):
    """The flag's bit in ``after``, or None when a block other than the flag
    and the ``own`` indices differs from ``before``."""
    if before.size != after.size:
        return None
    if any(i != flag_idx and i not in own for i in before.blocks.diff(after.blocks)):
        return None
    flag = after.blocks[flag_idx].payload
    return flag.bit if isinstance(flag, BoolPayload) else False


def _compile_assign(head: Assign):
    """The rule of an assignment: the right side's closure, then the store
    that the target's form chooses here. A scalar target's block is written
    by the closure ``memory.checked_writer`` builds for it, a mapping entry
    by ``_map_store``, and any other target by ``_lvalue_store``."""
    lhs, value = head.lhs, rvalue_closure(head.rhs)
    if type(lhs) is Evar and lhs.addr is not None:
        def assign_scalar(K, sigma, env, rest, head=head, value=value, addr=lhs.addr,
                          store=gm.checked_writer(lhs.addr.index)):
            rhs = value(K, sigma, env) if K > 0 else None
            if rhs is None:
                return "assignment right side failed to evaluate"
            sig = store(sigma, rhs, env)
            if type(sig) is not MemoryState:
                return sig or f"validated write to {addr} failed"
            if type(getattr(rhs.payload, "value", None)) is int:
                return sig, env, rest  # a concrete integer divides by nothing
            return _with_divides((sig, env, rest), head, "assignment right side", (rhs,))
        return assign_scalar
    mapping = isinstance(lhs, Econst) and isinstance(lhs.value, Vmap)

    def assign(K, sigma, env, rest, head=head, value=value,
               store=_map_store if mapping else _lvalue_store,
               target=lhs.value if mapping else lhs):
        rhs = value(K, sigma, env) if K > 0 else None
        if rhs is None:
            return "assignment right side failed to evaluate"
        return _with_divides(store(K, sigma, env, target, rhs, rest),
                             head, "assignment right side", (rhs,))
    return assign


def _lvalue_store(K, sigma, env, lhs, rhs: MemoryValue, rest) -> tuple | str:
    """Store ``rhs`` at the address ``lhs`` evaluates to, as a scalar target's
    store does."""
    addr = eval_lvalue(K, lhs, sigma, env)
    if addr is None:
        return "assignment target has no address"
    sig = gm.checked_writer(addr.index)(sigma, rhs, env)
    if type(sig) is not MemoryState:
        return sig or f"validated write to {addr} failed"
    return sig, env, rest


def _map_store(K, sigma, env, vmap: Vmap, rhs: MemoryValue, rest) -> tuple | str:
    """Store ``rhs`` under the keys of ``vmap`` (insert-only mappings).

    The keys evaluate once, then each chain is walked once: a found entry
    is overwritten in place, and a missing key gets a fresh node linked
    at the tail of its chain and tagged like that tail. Under a non-last
    key the fresh node holds a fresh inner head.
    """
    keys = []
    for e in vmap.keys:
        kv = eval_rvalue(K, e, sigma, env)
        if kv is None:
            return "mapping key failed to evaluate"
        p = kv.payload
        tree = (p.bit if isinstance(p, BoolPayload)
                else p.value if isinstance(p, gm.IntPayload) else None)
        if is_symbolic(tree):
            # Chains key on concrete payloads only.
            return (f"mapping key {tree} is symbolic; "
                    "symbolic mapping keys are unsupported")
        keys.append(p)
    sig, base, vt = sigma, vmap.base, vmap.value_type
    for i, key in enumerate(keys):
        last = i + 1 == len(keys)
        found, tail = locate_map_node(key, base, sig, env)
        if found is not None:
            block = sig.blocks[found.index]
            node = block.payload
            if last:
                entry = replace(block, payload=replace(node, kv=(node.kv[0], rhs.payload)))
                sig = gm.write(sig, found, entry, "chck", env)
                if sig is None:
                    return f"validated write to {found} failed"
                return sig, env, rest
            inner = node.kv[1]
        else:
            if tail is None or not (last or isinstance(vt, Tmap)):
                return "mapping insert failed"
            alloc = gm.allocate(sig, 1)
            if alloc is None:
                return "mapping insert failed"
            node_addr, sig = alloc
            tail_block = sig.blocks[tail.index]
            if last:
                inner = rhs.payload
            else:
                alloc = gm.allocate(sig, 1)
                if alloc is None:
                    return "mapping insert failed"
                inner_addr, sig = alloc
                inner = MapNode(init=inner_addr)
                sig = gm.write(sig, inner_addr, replace(tail_block, payload=inner), "dir")
            node = MapNode(init=base, kv=(key, inner))
            sig = gm.write(sig, node_addr, replace(tail_block, payload=node), "dir")
            sig = gm.write(sig, tail, replace(tail_block, payload=replace(
                tail_block.payload, next=node_addr)), "dir")
            if last:
                return sig, env, rest
        if not isinstance(inner, MapNode) or not isinstance(vt, Tmap):
            return "mapping insert failed"
        base, vt = inner.init, vt.value
    return "mapping insert failed"


# One compiler per statement class, keyed by exact type: each builds the
# rule ``(K, sigma, env, rest)`` of a node from the node's data alone.
_RULES = {
    Snil: lambda _head: _goes_on, Throw: lambda _head: _throws, FunStop: _compile_fun_stop,
    Contract: _compile_contract, Var: _compile_var, StructDecl: _compile_struct_decl,
    FunCall: _compile_call, If: _compile_if, LoopWhile: _compile_while,
    Fun: _compile_fun_decl, Assign: _compile_assign,
    Returns: _compile_return, ModifierGuard: _compile_modifier_guard,
}


# ---------------------------------------------------------------------------
# The dispatch loop

# Why ``drive`` stopped. After ERROR and SYMBOLIC the run holds the state
# before the stopping dispatch, its gas unspent and that statement at the head.
# After SYMBOLIC, ``step`` is that dispatch's result, its gas spent: the
# explorer forks there, partitioning the path's models once per split.
FINISHED = "finished"   # no statement left
NO_STATE = "no state"   # the memory state is absent
BUDGET = "budget"       # gas spent
ERROR = "error"
SYMBOLIC = "symbolic"   # a branch condition or a divisor is a symbolic tree


@dataclass
class Run:
    stop: str
    sigma: MemoryState | None
    env: Env
    remaining: tuple
    error: str | None = None
    halted: bool = False               # the last dispatch was a throw
    step: StepResult | None = None     # with SYMBOLIC: the stopping dispatch

    def final(self) -> MemoryState | None:
        """The result of a concrete run: absent after a failed dispatch, a
        symbolic branch or divisor, or a lost state (see ``reason``)."""
        return self.sigma if self.stop in (FINISHED, BUDGET) else None

    @property
    def reason(self) -> str | None:
        """Why a concrete run has no result: a failed dispatch's message, or
        a symbolic branch or divisor."""
        if self.stop == SYMBOLIC:
            return "symbolic branch or divisor reached in concrete execution"
        return self.error


def drive(K: int, sigma: MemoryState | None, env: Env, init: MemoryState | None,
          prog) -> Run:
    """Run ``prog`` until it stops; one step is a run with one unit of gas.

    Per dispatch: check the state and the gas, spend one unit of gas and
    execute the head. Its rule's tuple goes on, its message stops on ``ERROR``,
    and its ``StepResult`` forks (``SYMBOLIC``) or throws, which ends the run
    in ``init``, the state the run entered with, with the throw flag raised
    (with ``init`` None, in the state the throw was dispatched in).
    """
    remaining = tuple(prog)
    while True:
        if not remaining:
            return Run(FINISHED, sigma, env, remaining)
        if sigma is None:
            return Run(NO_STATE, sigma, env, remaining)
        if env.gas <= 0:
            return Run(BUDGET, sigma, env, remaining)
        # head by keyword: perfbench's tracer reads the statement kind from it
        res = exec_statement(K, sigma, Env(env.gas - 1, env.domain),
                             head=remaining[0], rest=remaining[1:])
        if type(res) is tuple:
            sigma, env, remaining = res
        elif type(res) is str:
            return Run(ERROR, sigma, env, remaining, error=res)
        elif res.splits:
            return Run(SYMBOLIC, sigma, env, remaining, step=res)
        else:  # a throw halts the run and leaves no statement
            return Run(FINISHED, _thrown(res.sigma if init is None else init), res.env,
                       res.remaining, halted=True)
