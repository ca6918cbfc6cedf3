"""World construction for whole-program runs, and spec lowering.

A run needs: a fresh memory with the standard library, the message
instance written from the chain context, the declaration statements
executed, seed writes and symbol blocks applied, and finally the entry
call. A ``World`` is that state and the entry environment. Declarations
and each seed write are ``drive`` runs under their own generous budget,
so that the user-facing gas limit measures the entry program alone, and
a failing one raises with its ``Run``'s reason. Seed writes and
symbols find their block through the binder, so a symbol takes its
block's type; spec expressions are lowered and typed as the program's.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import NamedTuple

from . import memory as gm
from .binder import BindError, BoundProgram, assigned_type
from .engine import Post, holds, throw_state, unchanged
from .memory import BoolPayload, IntPayload, MemoryState
from .parser import ParseError, parse_expr_text
from .specfile import SpecError
from .stdlib import fresh_memory, write_message
from .stmts import drive
from .symbolic import SymVar
from .syntax import (Assign, Econst, Efun, Evar, FunCall, LTypeError, Tbool, Tfid, Tint,
                     Tmap, TypeContext, Vbool, Vint, int_fits, type_text, typecheck_expr)
from .values import BlockInfo, initial_env

SETUP_GAS = 200_000
SETUP_K = 10_000


class RunnerError(Exception):
    pass


class World(NamedTuple):
    sigma: MemoryState
    env: object


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
    sigma = replace(sigma, alloc_floor=bound.floor)
    sigma = write_message(sigma, binfo)

    sigma = _setup_run(sigma, bound.decls, "declarations failed to execute")

    # The block timestamp is an ordinary global, written from the context.
    sigma = _poke(sigma, bound.bindings["now"], IntPayload(binfo.now, 64, False))

    for lvalue_text, raw in list(sets) + list(arg_writes):
        sigma = _apply_set(bound, sigma, lvalue_text, raw)

    for sym in symbols:
        sigma = _place_symbol(bound, sigma, sym, assignment)

    env = initial_env(gas, sigma.addr_of("0xglobal"))
    return World(sigma, env)


def _poke(sigma, addr, payload):
    block = sigma.blocks[addr.index]
    if block.occupancy != gm.OCCUPY:
        raise RunnerError(f"block {addr} is not declared")
    return gm.write(sigma, addr, replace(block, payload=payload), "dir")


def _target(bound: BoundProgram, text: str):
    """The lowered assignable target ``text`` names, and its block's type."""
    try:
        lowered = bound.binder.lower_expr(parse_expr_text(text))
    except (BindError, ParseError) as exc:
        # The position is one inside the target's own text, not the program's.
        raise RunnerError(f"cannot resolve {text!r}: {exc.msg}") from exc
    return lowered, assigned_type(lowered)


def _apply_set(bound: BoundProgram, sigma, lvalue_text: str, raw):
    lowered, ltype = _target(bound, lvalue_text)
    if not isinstance(ltype, (Tbool, Tint)):
        raise RunnerError(f"cannot seed {lvalue_text!r}: a seed write needs a bool or "
                          "integer variable, a fully indexed array element or a mapping entry")
    return _setup_run(sigma, (Assign(lowered, _literal_expr(ltype, raw)),),
                      f"seed write to {lvalue_text!r} failed")


def _setup_run(sigma, prog, failure: str):
    """The state after ``prog`` runs from ``sigma`` under the set-up budgets.
    A run with no result raises ``failure`` and the run's reason."""
    run = drive(SETUP_K, sigma, initial_env(SETUP_GAS, sigma.addr_of("0xglobal")), sigma, prog)
    out = run.final()
    if out is None:
        raise RunnerError(f"{failure}: {run.reason}")
    return out


def _place_symbol(bound: BoundProgram, sigma, sym, assignment):
    """Write ``sym``, or its value under ``assignment``, into the variable
    it names, with the width and signedness of that block."""
    target, ltype = _target(bound, sym.name)
    if not isinstance(ltype, Tbool if sym.kind == "bool" else Tint):
        what = f"a block of type {type_text(ltype, bound.binder.struct_names())}" if ltype \
            else "no variable"
        raise RunnerError(f"symbol {sym.name!r} of kind {sym.kind} names {what}")
    domain = f"{sym.lo}..{sym.hi}"
    if sym.kind == "int" and not (int_fits(sym.lo, ltype) and int_fits(sym.hi, ltype)):
        raise RunnerError(f"symbol {sym.name!r}: domain {domain} does not fit in "
                          f"{type_text(ltype)}")
    value = SymVar(sym.name) if assignment is None else assignment[sym.name]
    if assignment is not None:
        _literal_expr(ltype, value)  # a bool for a bool block, an int that fits otherwise
        if sym.kind == "int" and not sym.lo <= value <= sym.hi:
            raise RunnerError(f"symbol {sym.name!r}: value {value} is outside its domain "
                              f"{domain}")
    return _poke(sigma, target.addr, BoolPayload(value) if sym.kind == "bool"
                 else IntPayload(value, ltype.width, ltype.signed))


def entry_program(bound: BoundProgram, entry: str, pairs=()):
    """The call of ``entry`` and the global writes: of the ``(name, literal)``
    pairs, those that name a parameter fill it and the rest write blocks."""
    rec = bound.functions.get(entry)
    if rec is None:
        raise RunnerError(f"no function named {entry!r}")
    names = {p[0] for p in rec.params}
    arg_map = {name: lit for name, lit in pairs if name in names}
    args = []
    for pname, ptype, _addr in rec.params:
        if not isinstance(ptype, (Tbool, Tint)):
            raise RunnerError(f"entry argument {pname!r} has type "
                              f"{type_text(ptype, bound.binder.struct_names())}: "
                              "an entry argument must be a bool or an integer")
        if pname not in arg_map:
            raise RunnerError(f"missing argument {pname!r} for entry {entry!r}")
        args.append(_literal_expr(ptype, arg_map[pname]))
    call = FunCall(Efun(rec.addr, Tfid(rec.addr)), tuple(args))
    return (call,), [(name, lit) for name, lit in pairs if name not in names]


def make_pre(bound: BoundProgram, gas: int, binfo: BlockInfo,
             sets=(), arg_writes=(), symbols=()):
    """A builder suitable for triple verification: assignment -> world."""
    return lambda assignment: build_world(bound, gas, binfo, sets, arg_writes, symbols,
                                          assignment)


def spec_expr(bound: BoundProgram, line: int, e):
    """The boolean expression ``e`` of spec line ``line``, lowered by the
    binder and typechecked as the program's own expressions are."""
    binder, names = bound.binder, bound.binder.struct_names()
    try:
        lowered = binder.lower_expr(e)
        t = typecheck_expr(lowered, TypeContext(structs=binder.struct_members,
                                                struct_names=names))
        if not isinstance(t, Tbool):
            raise LTypeError(f"a spec expression must be a bool, not {type_text(t, names)}")
    except (BindError, LTypeError) as exc:
        raise SpecError(f"line {line}: {getattr(exc, 'msg', exc)}") from exc
    return lowered


def compile_posts(bound: BoundProgram, posts) -> Post:
    """Conjoin post lines into one ``Post`` over (final, initial)."""
    rules = []
    for p in posts:
        if p.kind == "throw-state":
            rules.append(throw_state)
        elif p.kind == "expr":
            rules.append(partial(holds, SETUP_K, spec_expr(bound, p.line, p.expr)))
        else:
            rules += (partial(unchanged, i) for i in _unchanged_blocks(bound, p))
    return Post(*rules)


def _unchanged_blocks(bound: BoundProgram, p) -> range:
    """The block indices of the variable ``post unchanged`` names, found as
    ``set`` and ``sym`` find theirs: an array's whole run."""
    try:
        target, _ = _target(bound, p.name)
    except RunnerError as exc:
        raise SpecError(f"line {p.line}: {exc}") from exc
    if not isinstance(target, Evar):
        raise SpecError(f"line {p.line}: post unchanged needs a variable name, not {p.name!r}")
    if isinstance(target.ltype, Tmap):
        # An entry written in place leaves the mapping's head block as it was.
        raise SpecError(f"line {p.line}: post unchanged cannot name the mapping {p.name!r}")
    base = target.addr.index
    return range(base, base + bound.binder.blocks_for(target.ltype))
