"""Symbolic expression trees carried inside memory payloads.

A payload's value slot may hold a concrete Python int/bool, ``None``
(declared but unset), or one of the trees below. Trees are built by the
operator evaluators when an operand is symbolic and are discharged by the
bounded enumerator in the engine, which evaluates them under concrete
assignments drawn from each symbol's declared finite domain.

Arithmetic nodes record the fixed width and signedness of their operands.
Both evaluating a tree under an assignment and the concrete operator
evaluators in the expression layer go through the one operator table,
``OPS``, which holds the division-by-zero rule; a nonzero width wraps the
result through ``wrap_int``. So symbolic and concrete results agree by
construction. ``SymOp.eval``, ``exprs.eval_bop`` with the compiled
closures of the expression layer's integer operators, which call
``eval_bop`` for any operand but two concrete integers of one width, and
``exprs.eval_uop`` each apply the table inline, because fork filtering
evaluates each branch condition once per model and operators run on the
dispatch path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property


class SymExpr:
    """Base class for symbolic expression nodes."""

    def eval(self, assignment):
        raise NotImplementedError


class SymEvalError(Exception):
    """Raised when a tree cannot be evaluated under an assignment."""


@dataclass(frozen=True)
class SymVar(SymExpr):
    name: str

    def eval(self, assignment):
        if self.name not in assignment:
            raise SymEvalError(f"no value for symbol {self.name!r}")
        return assignment[self.name]

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class SymConst(SymExpr):
    value: object  # int or bool

    def eval(self, assignment):
        return self.value

    def __str__(self):
        return str(self.value).lower() if isinstance(self.value, bool) else str(self.value)


@dataclass(frozen=True)
class SymOp(SymExpr):
    op: str
    args: tuple[SymExpr, ...]
    width: int = 0     # nonzero for arithmetic over fixed-width integers
    signed: bool = False

    def eval(self, assignment):
        # A node has one or two operands.
        fn = OPS.get(self.op)
        if fn is None:
            raise SymEvalError(f"unknown operator {self.op!r}")
        args = self.args
        a = args[0].eval(assignment)
        unary = len(args) == 1
        b = None if unary else args[1].eval(assignment)
        try:
            out = fn(a) if unary else fn(a, b)
        except TypeError as exc:
            raise SymEvalError(str(exc)) from exc
        return wrap_int(out, self.width, self.signed) if self.width else out

    @cached_property
    def guards(self) -> tuple:
        """``divisor != 0`` for each ``/`` or ``%`` in the tree by other than a
        nonzero constant, inner first and each once. Kept on the node, so a
        tree grown from a stored one is walked only where it is new."""
        found = dict.fromkeys(g for a in self.args if type(a) is SymOp for g in a.guards)
        d = self.args[-1]
        if self.op in ("/", "%") and not (type(d) is SymConst and d.value != 0):
            found[SymOp("!=", (d, SymConst(0)))] = None
        return tuple(found)

    def __str__(self):
        if len(self.args) == 1:
            return f"({self.op}{self.args[0]})"
        return "(" + f" {self.op} ".join(str(a) for a in self.args) + ")"


def wrap_int(v: int, width: int, signed: bool) -> int:
    """Reduce v to the representable range: two's complement if signed."""
    v %= 1 << width
    if signed and v >= 1 << (width - 1):
        v -= 1 << width
    return v


def trunc_div(a: int, b: int) -> int:
    """Division truncating toward zero (Solidity style)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def trunc_mod(a: int, b: int) -> int:
    """Remainder matching trunc_div: sign follows the dividend."""
    return a - trunc_div(a, b) * b


def _div(a, b):
    if b == 0:
        raise SymEvalError("division by zero")
    return trunc_div(a, b)


def _mod(a, b):
    if b == 0:
        raise SymEvalError("modulo by zero")
    return trunc_mod(a, b)


# The one operator table, applied by SymOp.eval, exprs.eval_bop with the
# expression layer's integer operator closures, and exprs.eval_uop.
OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "%": _mod,
    "<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
    "&&": lambda a, b: bool(a) and bool(b), "||": lambda a, b: bool(a) or bool(b),
    "!": operator.not_, "neg": operator.neg,
}


def is_symbolic(x) -> bool:
    return isinstance(x, SymExpr)


def to_symexpr(x) -> SymExpr:
    """Lift a concrete int/bool to a tree; pass trees through."""
    if isinstance(x, SymExpr):
        return x
    return SymConst(x)
