"""Expression-layer semantics.

Expressions evaluate in two positions: the l-position yields a memory
address, the r-position a memory value. Only array and mapping constants
and the four reference forms are addressable; everything else is banned
on the left. ``eval_rvalue`` looks the exact type of an expression up in
``_RULES``, one rule per class with a value, and nested evaluations go
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
    StatementBody,
    StructInstance,
    StructTypeInfo,
)
from .symbolic import SymEvalError, SymExpr, SymOp, apply_op, is_symbolic, to_symexpr
from .syntax import (
    Ebop,
    Econ,
    Econst,
    Efun,
    Epar,
    Estruct,
    Euop,
    Evar,
    LExpr,
    Varray,
    Vmap,
    payload_matches_type,
)
from .values import (
    Env,
    _concrete_indices,
    eval_value,
    locate_array_element,
    resolve_map_path,
)


def eval_lvalue(K: int, e: LExpr, sigma: MemoryState,
                env: Env) -> Address | None:
    if K <= 0:
        return None
    if isinstance(e, (Evar, Efun, Econ, Epar)):
        return e.addr
    if isinstance(e, Econst):
        v = e.value
        if isinstance(v, Varray):
            indices = _concrete_indices(K - 1, v.indices, sigma, env)
            if indices is None:
                return None
            return locate_array_element(v.arr_type, v.base, indices, sigma, env)
        if isinstance(v, Vmap):
            return resolve_map_path(K - 1, v, sigma, env)
    # Other constants, Estruct, Ebop, Euop and the modifier expression are
    # never addresses.
    return None


def eval_rvalue(K: int, e: LExpr, sigma: MemoryState,
                env: Env) -> MemoryValue | None:
    """The value of ``e``, by the rule that ``_RULES`` holds for its exact
    type; absent when K is spent or ``e`` has no value (the modifier
    expression)."""
    if K <= 0:
        return None
    rule = _RULES.get(type(e))
    return None if rule is None else rule(K, e, sigma, env)


def _eval_const(K, e: Econst, sigma, env):
    return eval_value(K - 1, e.value, sigma, env)


def _eval_ref(_K, e: Evar | Econ | Epar, sigma, env):
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
    Econst: _eval_const, Estruct: eval_str, Evar: _eval_ref, Econ: _eval_ref,
    Epar: _eval_ref, Efun: _eval_fun, Ebop: _eval_bop, Euop: _eval_uop,
}


# ---------------------------------------------------------------------------
# Operators: type guards here, semantics in the table of the symbolic module

_ARITH = {"+", "-", "*", "/", "%"}
_CMP = {"<", ">", "<=", ">=", "==", "!="}
_BOOL_OPS = {"&&", "||", "==", "!="}


def eval_bop(op: str, lhs: MemoryValue | None,
             rhs: MemoryValue | None) -> MemoryValue | None:
    if lhs is None or rhs is None:
        return None
    lp, rp = lhs.payload, rhs.payload
    width, signed = 0, False
    arith = op in _ARITH
    if isinstance(lp, IntPayload) and isinstance(rp, IntPayload):
        if lp.width != rp.width or lp.signed != rp.signed:
            return None
        if arith:
            width, signed = lp.width, lp.signed
        elif op not in _CMP:
            return None
        a, b = lp.value, rp.value
    elif isinstance(lp, BoolPayload) and isinstance(rp, BoolPayload):
        if op not in _BOOL_OPS:
            return None
        a, b = lp.bit, rp.bit
    else:
        return None
    if a is None or b is None:
        return None
    if isinstance(a, SymExpr) or isinstance(b, SymExpr):
        r = SymOp(op, (to_symexpr(a), to_symexpr(b)), width, signed)
    else:
        try:
            r = apply_op(op, (a, b), width, signed)
        except SymEvalError:
            return None
    return MemoryValue(IntPayload(r, width, signed) if arith else BoolPayload(r),
                       lhs.domain, lhs.level, lhs.access, lhs.occupancy)


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
                       v.domain, v.level, v.access, v.occupancy)


def extract(v: MemoryValue | None, kind: str):
    """Pull a native payload out of a memory value.

    kind "bool" returns the bit (possibly a symbolic tree), kind "stmts"
    the statement list of a stored body. Absent input or a wrong payload
    kind is absent.
    """
    if v is None:
        return None
    p = v.payload
    if kind == "bool":
        return p.bit if isinstance(p, BoolPayload) else None
    if kind == "stmts":
        return tuple(p.body) if isinstance(p, (FunctionInfo, StatementBody)) else None
    raise ValueError(f"unknown extract kind {kind!r}")
