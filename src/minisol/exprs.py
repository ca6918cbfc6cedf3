"""Expression-layer semantics.

Expressions evaluate in two positions: the l-position yields a memory
address, the r-position a memory value. Only array and mapping constants
(resolved by ``values.value_address``, the resolver their reads use) and
the two reference forms are addressable; everything else is banned on
the left. ``eval_rvalue`` checks the budget K, then calls the closure
that the node's compiler in ``_COMPILERS`` built on its first evaluation
(Feeley and Lapalme, "Using closures for code generation", 1987); a
compiled statement checks K itself and calls the closure that
``rvalue_closure`` gives it. Paths
share nodes, so a closure holds node data only, as default arguments: a
literal, operand closures called one K down. A variable's closure is the
validated read of its block that ``memory.checked_reader`` builds, so the
block layout and the validation predicate stay in the memory module.
``eval_bop`` and ``eval_uop`` check operand types and widths, then apply
the operator table of the symbolic module, the same one that evaluates
symbolic trees: fixed-width integer arithmetic wraps (two's complement
when signed), division and modulo by zero are absent, and both operands
are always evaluated (no short circuit). When an operand is symbolic the
result is a symbolic tree of the same kind. A concrete comparison, logic
operator or ``!`` gives one of two shared ``BoolPayload`` bits.

The closure of an arithmetic, ordering or equality node applies the
table's operator itself, wrapping through ``wrap_int``, when both operands
are concrete integers of one width and signedness; a literal right
operand is folded when the node is compiled. Every other operand, and an
operator that fails, such as a division by zero, takes ``eval_bop``'s
route, which stays the reference semantics.
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
    Vint,
    payload_matches_type,
)
from .values import Env, eval_value, int_literal, value_address


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
    """The value of ``e``, by the closure compiled from it on its first
    evaluation; absent when K is spent or ``e`` is not an expression."""
    if K <= 0:
        return None
    return (getattr(e, "compiled", None) or rvalue_closure(e))(K, sigma, env)


def rvalue_closure(e):
    """The closure of ``e`` for a K of at least 1, compiled once and kept on
    it: ``eval_rvalue`` for a caller that has checked K itself, such as a
    compiled statement."""
    run = getattr(e, "compiled", None)
    if run is None and type(e) in _COMPILERS:
        run = e.compiled = _COMPILERS[type(e)](e)
    return run or _absent


def _absent(_K, _sigma, _env):
    return None


def _compile_const(e: Econst):
    v = e.value
    if type(v) is not Vint:
        return lambda K, sigma, env, v=v: eval_value(K - 1, v, sigma, env)
    return lambda K, _sigma, env, value=v.value, width=v.width, signed=v.signed: (
        int_literal(value, width, signed, env.domain) if K > 1 else None)


def _compile_ref(e: Evar):
    return gm.checked_reader(-1 if e.addr is None else e.addr.index)


def _compile_fun(e: Efun):
    def fun(_K, sigma, env, addr=e.addr):
        block = gm.read(sigma, addr, "chck", env)
        info = None if block is None else block.payload
        ret = info.ret_addr if isinstance(info, FunctionInfo) else None
        return None if ret is None else gm.read(sigma, ret, "chck", env)
    return _absent if e.addr is None else fun


def _compile_bop(e: Ebop):
    op, left, right = e.op, rvalue_closure(e.left), e.right
    integer = _KIND.get(op) in (_ARITH, _ORDER, _EQUAL)
    if type(right) is Econst and type(right.value) is Vint:
        # eval_bop reads only the payload of its right operand, so a literal
        # there is one value for every domain, needing one more level of K.
        v = right.value
        rhs = int_literal(v.value, v.width, v.signed, Address(0))
        if integer and not (op in ("/", "%") and rhs.payload.value == 0):
            return _concrete_literal_bop(op, left, rhs)
        return lambda K, sigma, env, op=op, left=left, rhs=rhs: (
            eval_bop(op, left(K - 1, sigma, env), rhs) if K > 2 else None)
    right = rvalue_closure(right)
    if integer:
        return _concrete_bop(op, left, right)
    return lambda K, sigma, env, op=op, left=left, right=right: (
        eval_bop(op, left(K - 1, sigma, env), right(K - 1, sigma, env)) if K > 1 else None)


def _concrete_bop(op, left, right):
    """The closure of an integer operator: the operator itself over two
    concrete integers of one width and signedness, else ``eval_bop``."""
    def bop(K, sigma, env, op=op, fn=OPS[op], arith=_KIND[op] == _ARITH,
            left=left, right=right):
        if K <= 1:
            return None
        lhs, rhs = left(K - 1, sigma, env), right(K - 1, sigma, env)
        if lhs is not None and rhs is not None:
            lp, rp = lhs.payload, rhs.payload
            if (type(lp) is IntPayload and type(rp) is IntPayload
                    and type(a := lp.value) is int and type(b := rp.value) is int
                    and lp.width == rp.width and lp.signed == rp.signed):
                try:
                    r = fn(a, b)
                except SymEvalError:
                    return eval_bop(op, lhs, rhs)
                return MemoryValue(
                    IntPayload(wrap_int(r, lp.width, lp.signed), lp.width, lp.signed)
                    if arith else _BITS[r], lhs.domain, lhs.access, lhs.occupancy)
        return eval_bop(op, lhs, rhs)
    return bop


def _concrete_literal_bop(op, left, rhs):
    """As ``_concrete_bop``, with the right operand a literal folded here; a
    literal divisor is never zero. Passing ``_concrete_bop`` the literal as
    a closure instead made count-run-m100's ``job_s.p50`` 2.5% higher (ten
    alternating pairs, 2-core x86_64, ``BENCH_27.json``)."""
    p = rhs.payload

    def bop(K, sigma, env, op=op, fn=OPS[op], arith=_KIND[op] == _ARITH,
            left=left, rhs=rhs, b=p.value, width=p.width, signed=p.signed):
        if K <= 2:
            return None
        lhs = left(K - 1, sigma, env)
        if lhs is not None:
            lp = lhs.payload
            if (type(lp) is IntPayload and type(a := lp.value) is int
                    and lp.width == width and lp.signed == signed):
                return MemoryValue(
                    IntPayload(wrap_int(fn(a, b), width, signed), width, signed)
                    if arith else _BITS[fn(a, b)], lhs.domain, lhs.access, lhs.occupancy)
        return eval_bop(op, lhs, rhs)
    return bop


def _compile_uop(e: Euop):
    return lambda K, sigma, env, op=e.op, operand=rvalue_closure(e.operand): (
        eval_uop(op, operand(K - 1, sigma, env)) if K > 1 else None)


def _compile_struct(e: Estruct):
    """Build a struct instance: per-field type match, then evaluation.

    Fields evaluate left to right, two budget levels down (the
    expression and the constructor), and any failure fails the whole
    construction.
    """
    def struct(K, sigma, env, type_addr=e.type_addr, values=e.values):
        ty_block = gm.read(sigma, type_addr, "chck", env)
        if ty_block is None or not isinstance(ty_block.payload, StructTypeInfo):
            return None
        members = ty_block.payload.members
        if len(members) != len(values):
            return None
        out = []
        for v, (_name, mt) in zip(values, members):
            mv = eval_value(K - 2, v, sigma, env)
            if mv is None or not payload_matches_type(mv.payload, mt):
                return None
            out.append(mv.payload)
        return MemoryValue(StructInstance(type_addr, tuple(out)), env.domain)
    return struct


_COMPILERS = {
    Econst: _compile_const, Estruct: _compile_struct, Evar: _compile_ref, Efun: _compile_fun,
    Ebop: _compile_bop, Euop: _compile_uop,
}


# ---------------------------------------------------------------------------
# Operators: type guards here, semantics in the table of the symbolic module

# The kind of each binary operator: arithmetic and ordering take two
# integers, logic two bools, and equality either pair.
_ARITH, _ORDER, _EQUAL, _LOGIC = "arith", "order", "equal", "logic"
# The two bits of every concrete comparison, logic operator and ``!``,
# indexed by the result.
_BITS = (BoolPayload(False), BoolPayload(True))
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
    return MemoryValue(IntPayload(r, width, signed) if arith
                       else BoolPayload(r) if type(r) is SymOp else _BITS[r],
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
    if is_symbolic(x):
        r = SymOp(op, (x,), width, signed)
    else:
        r = OPS[op](x)
        if width:
            r = wrap_int(r, width, signed)
    return MemoryValue(IntPayload(r, width, signed) if op == "neg"
                       else BoolPayload(r) if type(r) is SymOp else _BITS[r],
                       v.domain, v.access, v.occupancy)

