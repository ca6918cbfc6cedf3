"""Expression-layer semantics.

Expressions evaluate in two positions: the l-position yields a memory
address, the r-position a memory value. Only array and mapping constants
(resolved by ``values.value_address``, the resolver their reads use) and
the two reference forms are addressable; everything else is banned on
the left. ``eval_rvalue`` looks the exact type of an expression up in
``_RULES``, one rule per expression class, and nested evaluations go
back through ``eval_rvalue``. ``eval_bop`` and ``eval_uop`` check operand
types and widths, then apply the operator table of the symbolic module,
the same one that evaluates symbolic trees: fixed-width integer
arithmetic wraps (two's complement when signed), division and modulo by
zero are absent, and both operands are always evaluated (no short
circuit). When an operand is symbolic the result is a symbolic tree of
the same kind.
"""

from __future__ import annotations

from . import memory as gm
from .memory import (
    Address,
    BoolPayload,
    FunctionInfo,
    IntPayload,
    MemoryState,
    MemoryValue,
    StructInstance,
    StructTypeInfo,
)
from .symbolic import (
    OPS,
    SymEvalError,
    SymExpr,
    SymOp,
    apply_op,
    is_symbolic,
    to_symexpr,
    wrap_int,
)
from .syntax import (
    Ebop,
    Econst,
    Efun,
    Estruct,
    Euop,
    Evar,
    LExpr,
    payload_matches_type,
)
from .values import Env, eval_value, value_address


def eval_lvalue(K: int, e: LExpr, sigma: MemoryState,
                env: Env) -> Address | None:
    if K <= 0:
        return None
    if isinstance(e, (Evar, Efun)):
        return e.addr
    if isinstance(e, Econst):
        return value_address(K, e.value, sigma, env)
    # Estruct, Ebop and Euop are never addresses.
    return None


def eval_rvalue(K: int, e: LExpr, sigma: MemoryState,
                env: Env) -> MemoryValue | None:
    """The value of ``e``, by the rule that ``_RULES`` holds for its exact
    type; absent when K is spent or ``e`` is not an expression."""
    if K <= 0:
        return None
    rule = _RULES.get(type(e))
    return None if rule is None else rule(K, e, sigma, env)


def _eval_const(K, e: Econst, sigma, env):
    return eval_value(K - 1, e.value, sigma, env)


def _eval_ref(_K, e: Evar, sigma, env):
    if e.addr is None:
        return None
    return gm.read(sigma, e.addr, "chck", env)


def _eval_fun(_K, e: Efun, sigma, env):
    if e.addr is None:
        return None
    block = gm.read(sigma, e.addr, "chck", env)
    if block is None or not isinstance(block.payload, FunctionInfo) \
            or block.payload.ret_addr is None:
        return None
    return gm.read(sigma, block.payload.ret_addr, "chck", env)


def _eval_bop(K, e: Ebop, sigma, env):
    # Nested evaluations call the module-global name, which the benchmark's
    # tracer (perfbench/tracer.py) wraps to count each one.
    left = eval_rvalue(K - 1, e.left, sigma, env)
    right = eval_rvalue(K - 1, e.right, sigma, env)
    return eval_bop(e.op, left, right)


def _eval_uop(K, e: Euop, sigma, env):
    return eval_uop(e.op, eval_rvalue(K - 1, e.operand, sigma, env))


def eval_str(K: int, e: Estruct, sigma: MemoryState,
             env: Env) -> MemoryValue | None:
    """Build a struct instance: per-field type match, then evaluation.

    Fields evaluate left to right, two budget levels down (the
    expression and the constructor), and any failure fails the whole
    construction.
    """
    ty_block = gm.read(sigma, e.type_addr, "chck", env)
    if ty_block is None or not isinstance(ty_block.payload, StructTypeInfo):
        return None
    members = ty_block.payload.members
    if len(members) != len(e.values):
        return None
    out = []
    for v, (_name, mt) in zip(e.values, members):
        mv = eval_value(K - 2, v, sigma, env)
        if mv is None or not payload_matches_type(mv.payload, mt):
            return None
        out.append(mv.payload)
    return gm.mvalue(StructInstance(e.type_addr, tuple(out)), env)


_RULES = {
    Econst: _eval_const, Estruct: eval_str, Evar: _eval_ref, Efun: _eval_fun,
    Ebop: _eval_bop, Euop: _eval_uop,
}


# ---------------------------------------------------------------------------
# Operators: type guards here, semantics in the table of the symbolic module

# The kind of each binary operator: arithmetic and ordering take two
# integers, logic two bools, and equality either pair.
_ARITH, _ORDER, _EQUAL, _LOGIC = "arith", "order", "equal", "logic"
_KIND = {
    "+": _ARITH, "-": _ARITH, "*": _ARITH, "/": _ARITH, "%": _ARITH,
    "<": _ORDER, ">": _ORDER, "<=": _ORDER, ">=": _ORDER,
    "==": _EQUAL, "!=": _EQUAL, "&&": _LOGIC, "||": _LOGIC,
}


def eval_bop(op: str, lhs: MemoryValue | None,
             rhs: MemoryValue | None) -> MemoryValue | None:
    kind = _KIND.get(op)
    if lhs is None or rhs is None or kind is None:
        return None
    lp, rp = lhs.payload, rhs.payload
    if type(lp) is IntPayload and type(rp) is IntPayload:
        if kind == _LOGIC or lp.width != rp.width or lp.signed != rp.signed:
            return None
        a, b = lp.value, rp.value
    elif type(lp) is BoolPayload and type(rp) is BoolPayload:
        if kind != _LOGIC and kind != _EQUAL:
            return None
        a, b = lp.bit, rp.bit
    else:
        return None
    if a is None or b is None:
        return None
    arith = kind == _ARITH
    width, signed = (lp.width, lp.signed) if arith else (0, False)
    if isinstance(a, SymExpr) or isinstance(b, SymExpr):
        r = SymOp(op, (to_symexpr(a), to_symexpr(b)), width, signed)
    else:
        try:
            r = OPS[op](a, b)
        except (SymEvalError, TypeError):
            return None
        if arith:
            r = wrap_int(r, width, signed)
    return MemoryValue(IntPayload(r, width, signed) if arith else BoolPayload(r),
                       lhs.domain, lhs.access, lhs.occupancy)


def eval_uop(op: str, v: MemoryValue | None) -> MemoryValue | None:
    if v is None:
        return None
    p = v.payload
    if op == "!" and isinstance(p, BoolPayload):
        x, width, signed = p.bit, 0, False
    elif op == "neg" and isinstance(p, IntPayload) and p.signed:
        x, width, signed = p.value, p.width, p.signed
    else:
        return None
    if x is None:
        return None
    r = SymOp(op, (x,), width, signed) if is_symbolic(x) else apply_op(op, (x,), width, signed)
    return MemoryValue(BoolPayload(r) if op == "!" else IntPayload(r, width, signed),
                       v.domain, v.access, v.occupancy)

