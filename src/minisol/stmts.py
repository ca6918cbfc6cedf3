"""Statement-layer semantics: the one dispatch loop over statement lists.

Execution is head-of-list: each dispatched statement costs one unit of
gas, transforms the state, and may rewrite the remaining statement list
(branches prepend the chosen arm, loops re-enqueue themselves, calls
unfold the stored body). ``drive`` is the only loop: it checks the
environment, spends gas, dispatches the head through ``exec_statement``
and reports why it stopped (see ``Run``). The concrete interpreter, the
step debugger and the path-forking explorer in the engine module, and
modifier evaluation here, are thin callers of it.

``exec_statement`` is the one per-dispatch entry point. It looks the
head's exact type up in ``_RULES``, one rule per statement class, and
every rule takes its arguments unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from . import memory as gm
from .layout import array_layout
from .memory import (
    Address,
    BoolPayload,
    ContractInfo,
    Fid,
    FunctionInfo,
    MapNode,
    MemoryState,
    MemoryValue,
    StructTypeInfo,
    Undef,
)
from .exprs import eval_lvalue, eval_rvalue, extract
from .symbolic import SymExpr, is_symbolic
from .syntax import (
    Assign,
    Contract,
    Econst,
    Efun,
    Fun,
    FunCall,
    FunStop,
    If,
    LoopFor,
    LoopWhile,
    LStatement,
    Modifier,
    Return,
    Returns,
    Snil,
    StructDecl,
    Tarray,
    Tbool,
    Throw,
    Tmap,
    Var,
    Vmap,
    array_dims,
)
from .values import Env  # noqa: F401  (Env re-exported)

__all__ = [
    "ExecContext", "StepResult", "Run", "SegmentSummary", "array_layout",
    "env_check", "init_array", "init_var", "exec_statement", "drive",
]


@dataclass
class ExecContext:
    """Ambient execution context threaded through a run."""
    sigma_init: MemoryState | None = None  # snapshot restored by throw
    registry: dict = field(default_factory=dict)  # contract name -> inheritance
    diagnostics: list = field(default_factory=list)

    def fail(self, msg: str):
        self.diagnostics.append(msg)
        return None

    def fork(self) -> "ExecContext":
        """A copy for a forked path: it shares no mutable state."""
        return ExecContext(self.sigma_init, dict(self.registry), list(self.diagnostics))


def env_check(env: Env, fenv: Env) -> bool:
    """Gas remains and the level/domain pair is still coherent.

    A domain that has been switched back to the super-environment's
    while the level still differs marks a finished function body.
    ``drive`` makes this check inline.
    """
    if env.gas <= 0:
        return False
    return not (env.domain == fenv.domain and env.level != fenv.level)


# ---------------------------------------------------------------------------
# Variable and array initialization

def _write_payload(sigma, addr, payload, env, access=gm.PUBLIC):
    value = MemoryValue(payload, domain=env.domain, level=env.level,
                        access=access, occupancy=gm.OCCUPY)
    return gm.write(sigma, addr, value, "dir")


@lru_cache(maxsize=None)
def _leaf_template(domain, level):
    return MemoryValue(Undef(), domain=domain, level=level,
                       access=gm.PUBLIC, occupancy=gm.OCCUPY)


@lru_cache(maxsize=None)
def _header_template(dim, group, domain, level):
    return MemoryValue(gm.ArrayGroup(dim, group), domain=domain, level=level,
                       access=gm.PUBLIC, occupancy=gm.OCCUPY)


@lru_cache(maxsize=None)
def _group_run(suffix: tuple, domain, level) -> tuple:
    """Blocks of one group whose own dimension sizes are ``suffix``.

    A final-dimension group is a single default leaf; any other group is
    its header (carrying the sibling count and group size) followed by
    the runs of its subgroups. Runs are immutable and depend only on the
    dimension suffix, so they are shared across arrays and calls.
    """
    if len(suffix) == 1:
        return (_leaf_template(domain, level),)
    group_size = array_layout(suffix).group_sizes[0]
    header = _header_template(suffix[0], group_size, domain, level)
    return (header,) + _group_run(suffix[1:], domain, level) * suffix[1]


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
    run = _group_run(tuple(dims), env.domain, env.level)
    blocks = sigma.blocks.update(zip(range(base.index, base.index + total), run * dims[0],
                                     strict=True))
    return MemoryState(blocks, sigma.symbol_table, sigma.alloc_floor)


def init_var(sigma: MemoryState, env: Env, access, ltype, addr: Address,
             K: int | None = None) -> MemoryState | None:
    """First write of a declared block: default value, declared access."""
    if addr is None or not 0 <= addr.index < sigma.size:
        return None
    if sigma.blocks[addr.index].occupancy == gm.OCCUPY:
        return None
    if isinstance(ltype, Tarray):
        dims, _final = array_dims(ltype)
        layout = array_layout(dims)
        sig = gm.allocate_at(sigma, addr, layout.array_size)
        if sig is None:
            return None
        return init_array(K if K is not None else 2 * layout.array_size + 2,
                          sig, addr, ltype, env)
    payload = (MapNode(init=addr, kv=None, key_type=ltype.key, value_type=ltype.value,
                       next=None) if isinstance(ltype, Tmap) else Undef())
    return _write_payload(sigma, addr, payload, env, access or gm.PUBLIC)


# ---------------------------------------------------------------------------
# Single-statement dispatch

@dataclass
class StepResult:
    sigma: MemoryState | None
    env: Env
    remaining: tuple
    error: str | None = None
    symbolic_cond: SymExpr | None = None  # branch condition needs a fork
    halted: bool = False                  # throw-style termination


def _fail(env, rest, msg, ctx) -> StepResult:
    ctx.fail(msg)
    return StepResult(None, env, rest, error=msg)


@dataclass
class SegmentSummary(LStatement):
    """A program segment summarized by its state transformer.

    ``engine.verify_triple`` splices a summary into the program in place
    of ``segment`` once it has proven the two agree; dispatching it
    applies ``transform`` to the state.
    """
    segment: tuple
    transform: object  # Callable[[MemoryState], MemoryState | None]
    label: str = "summary"


def exec_statement(K: int, sigma: MemoryState, env: Env, fenv: Env,
                   ctx: ExecContext, head: LStatement, rest: tuple,
                   assume: bool | None = None) -> StepResult:
    """Dispatch one statement by the rule ``_RULES`` holds for its exact
    type; every rule takes these arguments. Gas must already be spent.

    ``assume`` decides a symbolic branch or loop condition; without it
    such a condition is returned as ``symbolic_cond``.
    """
    rule = _RULES.get(type(head))
    if rule is None:
        return _fail(env, rest, f"unknown statement {type(head).__name__}", ctx)
    return rule(K, sigma, env, fenv, ctx, head, rest, assume)


def _exec_snil(_K, sigma, env, _fenv, _ctx, _head, rest, _assume) -> StepResult:
    return StepResult(sigma, env, rest)


def _exec_throw(_K, sigma, env, _fenv, ctx, _head, _rest, _assume) -> StepResult:
    base = ctx.sigma_init if ctx.sigma_init is not None else sigma
    names = gm.reserved_addresses(base.size)
    flag = MemoryValue(BoolPayload(True), names["0xglobal"], 0, gm.PUBLIC, gm.OCCUPY)
    thrown = gm.write(base, names["0xthrow"], flag, "dir")
    return StepResult(thrown, env, (), halted=True)


def _exec_fun_stop(_K, sigma, env, fenv, _ctx, _head, rest, _assume) -> StepResult:
    return StepResult(sigma, Env(env.gas, env.gas_limit, fenv.level, fenv.domain), rest)


def _exec_contract(_K, sigma, env, _fenv, ctx, head, rest, _assume) -> StepResult:
    declared = tuple(head.inherits)
    expected = tuple(ctx.registry.get(head.name, declared))
    if declared != expected:
        return StepResult(sigma, env, rest)
    info = ContractInfo(head.name, tuple(head.members), declared)
    sig = _write_payload(sigma, head.name, info, env)
    if sig is None:
        return _fail(env, rest, f"contract block {head.name} out of range", ctx)
    return StepResult(sig, env, rest)


def _exec_var(K, sigma, env, _fenv, ctx, head, rest, _assume) -> StepResult:
    decl = head.decl
    if decl.addr is None:
        return _fail(env, rest, "declaration without an address", ctx)
    sig = init_var(sigma, env, head.access, decl.ltype, decl.addr, K=K)
    if sig is None:
        return _fail(env, rest, f"cannot initialize block {decl.addr}", ctx)
    return StepResult(sig, env, rest)


def _exec_struct_decl(_K, sigma, env, _fenv, ctx, head, rest, _assume) -> StepResult:
    info = StructTypeInfo(head.type_addr, tuple(head.members))
    sig = _write_payload(sigma, head.type_addr, info, env)
    if sig is None:
        return _fail(env, rest, f"struct block {head.type_addr} out of range", ctx)
    return StepResult(sig, env, rest)


def _exec_if(K, sigma, env, _fenv, ctx, head, rest, assume) -> StepResult:
    return _branch(K, sigma, env, ctx, head, rest, assume, "branch",
                   (*head.then, *rest), (*head.orelse, *rest))


def _exec_while(K, sigma, env, _fenv, ctx, head, rest, assume) -> StepResult:
    return _branch(K, sigma, env, ctx, head, rest, assume, "loop",
                   (*head.body, head, *rest), rest)


def _exec_for(K, sigma, env, _fenv, ctx, head, rest, assume) -> StepResult:
    init = (head.init,) if head.init is not None else ()
    post = (head.post,) if head.post is not None else ()
    return _branch(K, sigma, env, ctx, head, rest, assume, "loop",
                   (*init, *head.body, *post, head, *rest), rest)


def _exec_return(K, sigma, env, fenv, ctx, head, rest, _assume) -> StepResult:
    exprs = (head.value,) if isinstance(head, Return) else head.values
    values = []
    for e in exprs:
        v = eval_rvalue(K, e, sigma, env)
        if v is None:
            return _fail(env, rest, "return value failed to evaluate", ctx)
        values.append(v)
    sig = _write_returns(sigma, env, tuple(values))
    if sig is None:
        return _fail(env, rest, "return slot is not writable", ctx)
    return StepResult(sig, Env(env.gas, env.gas_limit, env.level, fenv.domain), rest)


def _exec_summary(_K, sigma, env, _fenv, ctx, head, rest, _assume) -> StepResult:
    out = head.transform(sigma)
    if out is None:
        return _fail(env, rest, f"summary {head.label} rejected the state", ctx)
    return StepResult(out, env, rest)


def _branch(K, sigma, env, ctx, head, rest, assume, what, taken,
            skipped) -> StepResult:
    """Decide the condition of an If or a loop and continue with the
    remainder ``taken`` or ``skipped`` that it chooses.

    A symbolic condition leaves the statement in place and is returned
    as ``symbolic_cond``, unless ``assume`` decides it.
    """
    bit = extract(eval_rvalue(K, head.cond, sigma, env), "bool")
    if bit is None:
        return _fail(env, rest, f"{what} condition failed to evaluate", ctx)
    if isinstance(bit, SymExpr):
        if assume is None:
            return StepResult(sigma, env, (head,) + rest, symbolic_cond=bit)
        bit = assume
    return StepResult(sigma, env, taken if bit else skipped)


def _write_returns(sigma, env, values) -> MemoryState | None:
    """Store ``values`` in the return slots of the executing function,
    the one the environment's domain names. A top-level return stores
    nothing; its domain switch still halts."""
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


def _exec_call(K, sigma, env, _fenv, ctx, head, rest, _assume) -> StepResult:
    callee = head.callee
    fid = None
    if isinstance(callee, Efun):
        if callee.addr is None:
            return _fail(env, rest, "call target has no address", ctx)
        target = callee.addr
    else:
        cv = eval_rvalue(K, callee, sigma, env)
        if cv is None or not isinstance(cv.payload, Fid) or cv.payload.fun is None:
            return _fail(env, rest, "call target is not a function value", ctx)
        fid = cv.payload
        target = fid.fun
    arg_values = []
    for a in head.args:
        v = eval_rvalue(K, a, sigma, env)
        if v is None:
            return _fail(env, rest, "call argument failed to evaluate", ctx)
        arg_values.append(v)
    if fid is not None and fid.args:
        arg_values = list(fid.args) + arg_values
    return _enter_call(sigma, env, target, fid, tuple(arg_values), rest, ctx)


def _enter_call(sigma, env, target: Address, fid, arg_values, rest,
                ctx) -> StepResult:
    block = gm.read(sigma, target, "chck", env)
    if block is None or not isinstance(block.payload, FunctionInfo):
        return _fail(env, rest, f"no function stored at {target}", ctx)
    info = block.payload
    body = extract(block, "stmts")
    if body is None:
        return _fail(env, rest, f"function at {target} has no body", ctx)
    sig = sigma
    if info.params is not None:
        if fid is not None and fid.receiver is not None:
            receiver = gm.read(sigma, fid.receiver, "dir")
            if receiver is not None and len(info.params) == len(arg_values) + 1:
                arg_values = (receiver,) + tuple(arg_values)
        if len(info.params) != len(arg_values):
            return _fail(env, rest,
                         f"call arity {len(arg_values)} != {len(info.params)}", ctx)
        for p, v in zip(info.params, arg_values):
            target_block = gm.read(sig, p.addr, "dir")
            if target_block is None:
                return _fail(env, rest, "parameter block out of range", ctx)
            sig = gm.write(sig, p.addr, replace(target_block, payload=v.payload,
                                                occupancy=gm.OCCUPY), "dir")
    return StepResult(sig, Env(env.gas, env.gas_limit, 0, target), body + rest)


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


def _exec_fun_decl(K, sigma, env, fenv, ctx, head, rest, _assume) -> StepResult:
    """Store a function, or a modifier (a function returning one bool).

    A function's modifiers run first, from the same state: each may set
    only the modifier flag, and a false flag skips the declaration.
    """
    is_fun = isinstance(head, Fun)
    what = "function" if is_fun else "modifier"
    if is_fun and head.modifiers:
        flag_idx = gm.reserved_addresses(sigma.size)["0xmodifier"].index
        for call in head.modifiers:
            run = drive(K, sigma, env, fenv, ctx, (call,))
            after, env = run.final(ctx), run.env
            if after is None:
                return _fail(env, rest, "modifier evaluation failed", ctx)
            verdict = _modif_check(sigma, after, flag_idx)
            if verdict is None:
                return _fail(env, rest, "modifier touched memory outside its flag", ctx)
            if verdict is False:
                # Checks came back false: the guarded function is skipped.
                return StepResult(sigma, env, rest)
    returns = tuple(head.returns) if is_fun else (Tbool(),)
    sig = sigma
    for p in head.params:
        sig = init_var(sig, env, None, p.ltype, p.addr, K=K)
        if sig is None:
            return _fail(env, rest, f"{what} parameter block not free", ctx)
    if head.ret_addr is not None:
        sig = _init_return_slots(sig, env, head.ret_addr, returns)
        if sig is None:
            return _fail(env, rest, f"{what} return slots not available", ctx)
    body = tuple(head.body)
    if not body or not isinstance(body[-1], FunStop):
        body = body + (FunStop(),)
    info = FunctionInfo(returns, tuple(head.params), head.ret_addr, body)
    sig = _write_payload(sig, head.name, info, env)
    if sig is None:
        return _fail(env, rest, f"{what} block out of range", ctx)
    return StepResult(sig, env, rest)


def _modif_check(before: MemoryState, after: MemoryState, flag_idx: int):
    """True: flag set and nothing else changed. False: untouched memory but
    flag false. None: some other block was modified."""
    if before.size != after.size:
        return None
    if any(i != flag_idx for i in before.blocks.diff(after.blocks)):
        return None
    flag = after.blocks[flag_idx].payload
    return isinstance(flag, BoolPayload) and flag.bit is True


def _exec_assign(K, sigma, env, _fenv, ctx, head, rest, _assume) -> StepResult:
    rhs = eval_rvalue(K, head.rhs, sigma, env)
    if rhs is None:
        return _fail(env, rest, "assignment right side failed to evaluate", ctx)
    if isinstance(rhs.payload, Fid) and rhs.payload.fun is not None:
        # Function pointer produced by a field access: run it as a call.
        fid = rhs.payload
        return _enter_call(sigma, env, fid.fun, fid, tuple(fid.args or ()),
                           rest, ctx)
    addr = eval_lvalue(K, head.lhs, sigma, env)
    if addr is None:
        if not (isinstance(head.lhs, Econst) and isinstance(head.lhs.value, Vmap)):
            return _fail(env, rest, "assignment target has no address", ctx)
        keys = []
        for e in head.lhs.value.keys:
            kv = eval_rvalue(K, e, sigma, env)
            if kv is None:
                return _fail(env, rest, "mapping key failed to evaluate", ctx)
            p = kv.payload
            tree = (p.bit if isinstance(p, BoolPayload)
                    else p.value if isinstance(p, gm.IntPayload) else None)
            if is_symbolic(tree):
                # Chains key on concrete payloads only.
                return _fail(env, rest, f"mapping key {tree} is symbolic; "
                             "symbolic mapping keys are unsupported", ctx)
            keys.append(p)
        sig = _map_insert(sigma, head.lhs.value, keys, rhs, env)
        if sig is None:
            return _fail(env, rest, "mapping insert failed", ctx)
        return StepResult(sig, env, rest)
    target = gm.read(sigma, addr, "dir")
    if target is not None and isinstance(target.payload, MapNode):
        node = target.payload
        if node.kv is None:
            return _fail(env, rest, "cannot assign into a mapping head", ctx)
        grafted = replace(target, payload=replace(node, kv=(node.kv[0], rhs.payload)))
        sig = gm.write(sigma, addr, grafted, "chck", env)
    else:
        sig = gm.write(sigma, addr, rhs, "chck", env)
    if sig is None:
        return _fail(env, rest, f"validated write to {addr} failed", ctx)
    return StepResult(sig, env, rest)


def _map_insert(sigma, vmap: Vmap, key_payloads, value: MemoryValue,
                env: Env) -> MemoryState | None:
    """Create the chain entry for a missing key (insert-only mappings)."""
    kt, vt = vmap.key_type, vmap.value_type
    sig = sigma
    base = vmap.base
    for i, key in enumerate(key_payloads):
        head_block = gm.read(sig, base, "chck", env)
        if head_block is None or not isinstance(head_block.payload, MapNode):
            return None
        last = i + 1 == len(key_payloads)
        node_addr = None
        found = None
        cur = base
        for _ in range(sig.size + 1):
            blk = gm.read(sig, cur, "dir")
            if blk is None or not isinstance(blk.payload, MapNode):
                return None
            if blk.payload.kv is not None and blk.payload.kv[0] == key:
                found = cur
                break
            if blk.payload.next is None:
                node_addr = cur  # chain tail
                break
            cur = blk.payload.next
        if found is not None:
            if last:
                blk = gm.read(sig, found, "dir")
                node = blk.payload
                sig = gm.write(sig, found,
                               replace(blk, payload=replace(node, kv=(key, value.payload))),
                               "chck", env)
                return sig
            blk = gm.read(sig, found, "dir")
            entry = blk.payload.kv[1]
            if not isinstance(entry, MapNode):
                return None
            base = entry.init
            if isinstance(vt, Tmap):
                kt, vt = vt.key, vt.value
            continue
        # Key missing: allocate a fresh node, link it at the tail.
        alloc = gm.allocate(sig, 1)
        if alloc is None:
            return None
        new_addr, sig = alloc
        if last:
            entry_payload = value.payload
        else:
            inner = gm.allocate(sig, 1)
            if inner is None:
                return None
            inner_addr, sig = inner
            if not isinstance(vt, Tmap):
                return None
            inner_head = MapNode(init=inner_addr, kv=None, key_type=vt.key,
                                 value_type=vt.value, next=None)
            sig = gm.write(sig, inner_addr,
                           replace(head_block, payload=inner_head), "dir")
            entry_payload = MapNode(init=inner_addr, kv=None, key_type=vt.key,
                                    value_type=vt.value, next=None)
        node = MapNode(init=base, kv=(key, entry_payload), key_type=kt,
                       value_type=vt, next=None)
        sig = gm.write(sig, new_addr, replace(head_block, payload=node), "dir")
        tail_block = gm.read(sig, node_addr, "dir")
        sig = gm.write(sig, node_addr,
                       replace(tail_block, payload=replace(tail_block.payload,
                                                           next=new_addr)), "dir")
        if sig is None:
            return None
        if last:
            return sig
        base = entry_payload.init
        kt, vt = vt.key, vt.value
    return sig


# One rule per statement class, keyed by exact type.
_RULES = {
    Snil: _exec_snil, Throw: _exec_throw, FunStop: _exec_fun_stop,
    Contract: _exec_contract, Var: _exec_var, StructDecl: _exec_struct_decl,
    FunCall: _exec_call, If: _exec_if, LoopWhile: _exec_while, LoopFor: _exec_for,
    Fun: _exec_fun_decl, Modifier: _exec_fun_decl, Assign: _exec_assign,
    Return: _exec_return, Returns: _exec_return, SegmentSummary: _exec_summary,
}


# ---------------------------------------------------------------------------
# The dispatch loop

# Why ``drive`` stopped. After ERROR and SYMBOLIC the run holds the state
# before the failing dispatch, with that statement still at the head.
FINISHED = "finished"   # no statement left
NO_STATE = "no state"   # the memory state is absent
BUDGET = "budget"       # the environment check failed: gas spent or body done
ERROR = "error"
SYMBOLIC = "symbolic"   # a branch condition is a symbolic tree
PAUSED = "paused"       # the one dispatch asked for ran


@dataclass
class Run:
    stop: str
    sigma: MemoryState | None
    env: Env
    remaining: tuple
    error: str | None = None
    cond: SymExpr | None = None  # the condition when stopped on SYMBOLIC
    halted: bool = False         # the last dispatch was a throw

    def final(self, ctx: ExecContext) -> MemoryState | None:
        """The result of a concrete run: absent after a failed dispatch, a
        symbolic branch condition or a lost state."""
        if self.stop == SYMBOLIC:
            ctx.fail("symbolic branch condition reached in concrete execution")
        return self.sigma if self.stop in (FINISHED, BUDGET) else None


def drive(K: int, sigma: MemoryState | None, env: Env, fenv: Env,
          ctx: ExecContext, prog, assume: bool | None = None,
          once: bool = False) -> Run:
    """Run ``prog`` until it stops, or for one dispatch if ``once``.

    Per dispatch: check the state and the environment, spend one unit of
    gas, execute the head, continue on the rewritten remainder.
    ``assume`` decides a symbolic condition of the first dispatch only.
    """
    remaining = tuple(prog)
    halted = False
    while True:
        if not remaining:
            return Run(FINISHED, sigma, env, remaining, halted=halted)
        if sigma is None:
            return Run(NO_STATE, sigma, env, remaining, halted=halted)
        gas = env.gas  # the env_check test, inline
        if gas <= 0 or env.level != fenv.level and env.domain.index == fenv.domain.index:
            return Run(BUDGET, sigma, env, remaining, halted=halted)
        res = exec_statement(K, sigma, Env(gas - 1, env.gas_limit, env.level, env.domain),
                             fenv, ctx, remaining[0], remaining[1:], assume)
        if res.error is not None:
            return Run(ERROR, sigma, env, remaining, error=res.error)
        if res.symbolic_cond is not None:
            return Run(SYMBOLIC, sigma, env, remaining, cond=res.symbolic_cond)
        sigma, env, remaining, halted = res.sigma, res.env, res.remaining, res.halted
        if once:
            return Run(PAUSED, sigma, env, remaining, halted=halted)
        assume = None
