"""World construction for whole-program runs.

A run needs: a fresh memory with the standard library, the message
instance written from the chain context, the declaration statements
executed, seed writes and symbol blocks applied, and finally the entry
call. Declarations execute under their own generous budget so that the
user-facing gas limit measures the entry program alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from . import memory as gm
from .binder import BindError, BoundProgram, assigned_type
from .engine import Post, equals, interpret, throw_state, unchanged
from .memory import BoolPayload, IntPayload, MemoryState
from .parser import ParseError, parse_expr_text
from .stdlib import fresh_memory, write_message
from .stmts import Assign, ExecContext
from .symbolic import SymVar
from .syntax import Econst, Tbool, Tint, Vbool, Vint, int_fits, type_text
from .values import BlockInfo, initial_env

SETUP_GAS = 200_000
SETUP_K = 10_000


class RunnerError(Exception):
    pass


@dataclass
class World:
    sigma: MemoryState
    env: object
    ctx: ExecContext


def _literal_expr(ltype, raw):
    """A literal of ``ltype``, a ``Tbool`` or a ``Tint``, holding ``raw``."""
    if isinstance(ltype, Tbool):
        if not isinstance(raw, bool):
            raise RunnerError(f"expected a boolean for a bool block, got {raw!r}")
        return Econst(Vbool(raw))
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise RunnerError(f"expected an integer, got {raw!r}")
    if not int_fits(raw, ltype):
        raise RunnerError(f"integer {raw} does not fit in {type_text(ltype)}")
    return Econst(Vint(raw, ltype.width, ltype.signed))


def build_world(bound: BoundProgram, gas: int, binfo: BlockInfo,
                sets=(), arg_writes=(), symbols=(), assignment=None) -> World:
    """Construct the pre-state of a run.

    sets/arg_writes are (surface lvalue text, literal) pairs executed as
    assignments after the declarations; symbols are written last, either
    as symbolic payloads or, when an assignment is given, as concrete
    values drawn from it.
    """
    sigma = fresh_memory(bound.mem_size)
    sigma = replace(sigma, alloc_floor=bound.floor,
                    symbol_table={**sigma.symbol_table, **bound.bindings})
    sigma = write_message(sigma, binfo)

    ctx = ExecContext()

    setup_env = initial_env(SETUP_GAS, sigma.addr_of("0xglobal"))
    sigma = interpret(SETUP_K, sigma, setup_env, bound.decls, ctx)
    if sigma is None:
        raise RunnerError("declarations failed to execute: "
                          + "; ".join(ctx.diagnostics[-3:]))

    # The block timestamp is an ordinary global, written from the context.
    sigma = _poke(sigma, bound.bindings["now"], IntPayload(binfo.now, 64, False))

    for lvalue_text, raw in list(sets) + list(arg_writes):
        sigma = _apply_set(bound, sigma, ctx, lvalue_text, raw)

    for sym in symbols:
        if sym.name not in bound.bindings:
            raise RunnerError(f"symbol {sym.name!r} does not name a declared block")
        addr = bound.bindings[sym.name]
        if assignment is not None:
            if sym.name not in assignment:
                raise RunnerError(f"no concrete value for symbol {sym.name!r}")
            value = assignment[sym.name]
            payload = (BoolPayload(bool(value)) if sym.kind == "bool"
                       else IntPayload(int(value), sym.width, sym.signed))
        else:
            payload = (BoolPayload(SymVar(sym.name)) if sym.kind == "bool"
                       else IntPayload(SymVar(sym.name), sym.width, sym.signed))
        sigma = _poke(sigma, addr, payload)

    ctx.sigma_init = None  # the entry run snapshots on entry
    env = initial_env(gas, sigma.addr_of("0xglobal"))
    return World(sigma, env, ctx)


def _poke(sigma, addr, payload):
    block = sigma.blocks[addr.index]
    if block.occupancy != gm.OCCUPY:
        raise RunnerError(f"block {addr} is not declared")
    return gm.write(sigma, addr, replace(block, payload=payload), "dir")


def _apply_set(bound: BoundProgram, sigma, ctx, lvalue_text: str, raw):
    try:
        lowered = bound.binder.lower_expr(parse_expr_text(lvalue_text))
    except (BindError, ParseError) as exc:
        # The position is one inside the target's own text, not the program's.
        raise RunnerError(f"cannot resolve {lvalue_text!r}: {exc.msg}") from exc
    ltype = assigned_type(lowered)
    if not isinstance(ltype, (Tbool, Tint)):
        raise RunnerError(f"cannot seed {lvalue_text!r}: a seed write needs a bool or "
                          "integer variable, a fully indexed array element or a mapping entry")
    stmt = Assign(lowered, _literal_expr(ltype, raw))
    env = initial_env(SETUP_GAS, sigma.addr_of("0xglobal"))
    out = interpret(SETUP_K, sigma, env, (stmt,), ctx)
    if out is None:
        raise RunnerError(f"seed write to {lvalue_text!r} failed: "
                          + "; ".join(ctx.diagnostics[-2:]))
    return out


def entry_program(bound: BoundProgram, entry: str, arg_map=None):
    """The entry invocation; named arguments fill the parameter list."""
    rec = bound.functions.get(entry)
    if rec is None:
        raise RunnerError(f"no function named {entry!r}")
    args = []
    arg_map = dict(arg_map or {})
    for pname, ptype, _addr in rec.params:
        if not isinstance(ptype, (Tbool, Tint)):
            raise RunnerError(f"entry argument {pname!r} has type "
                              f"{type_text(ptype, bound.binder.struct_names())}: "
                              "an entry argument must be a bool or an integer")
        if pname not in arg_map:
            raise RunnerError(f"missing argument {pname!r} for entry {entry!r}")
        args.append(_literal_expr(ptype, arg_map.pop(pname)))
    return (bound.entry_call(entry, args),), arg_map


def make_pre(bound: BoundProgram, gas: int, binfo: BlockInfo,
             sets=(), arg_writes=(), symbols=()):
    """A builder suitable for triple verification: assignment -> world."""
    def pre(assignment):
        world = build_world(bound, gas, binfo, sets=sets,
                            arg_writes=arg_writes, symbols=symbols,
                            assignment=assignment)
        return world.sigma, world.env, world.ctx
    return pre


def compile_posts(bound: BoundProgram, posts) -> Post:
    """Conjoin post lines into one ``Post`` over (final, initial)."""
    rules = []
    for p in posts:
        if p.kind == "throw-state":
            rules.append(throw_state)
            continue
        if p.kind not in ("equals", "unchanged"):
            raise RunnerError(f"unknown post kind {p.kind!r}")
        if p.name not in bound.bindings:
            raise RunnerError(f"post names unknown block {p.name!r}")
        index = bound.bindings[p.name].index
        rules.append(partial(equals, index, p.value) if p.kind == "equals"
                     else partial(unchanged, index))
    return Post(*rules)
