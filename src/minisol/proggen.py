"""Seeded random generator for core-subset programs.

Programs draw from plain declarations, scalar assignments, branches,
counted while loops, skips, throws and returns, over signed 64-bit
integer and boolean variables. Expression depth stays at or under five,
integer literals within [-8, 8], loop bounds within four iterations, so
generated programs terminate well inside the default budgets. Used by
the differential suites and the randomized acceptance checks.
"""

from __future__ import annotations

import random

from .memory import Address
from .syntax import (
    Assign,
    Ebop,
    Econst,
    Euop,
    Evar,
    If,
    LoopWhile,
    Returns,
    Snil,
    Tbool,
    Throw,
    Tint,
    TypeContext,
    Var,
    Vbool,
    Vint,
    typecheck_stmt,
)

INT_T = Tint(64, True)
BOOL_T = Tbool()

CMPS = ("<", ">", "<=", ">=", "==", "!=")
ARITH = ("+", "-", "*", "+", "-")  # division stays rare, added separately
N_INTS, N_BOOLS = 4, 2
MAX_DEPTH = 5  # statement nesting of a whole program


class ProgramGen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.int_vars = [Address(i) for i in range(N_INTS)]
        self.bool_vars = [Address(N_INTS + i) for i in range(N_BOOLS)]

    # -- expressions --------------------------------------------------------

    def int_atom(self):
        if self.rng.random() < 0.5:
            return Econst(Vint(self.rng.randint(-8, 8), 64, True))
        return Evar(self.rng.choice(self.int_vars), INT_T)

    def int_expr(self, depth: int):
        if depth <= 0 or self.rng.random() < 0.35:
            return self.int_atom()
        roll = self.rng.random()
        if roll < 0.85:
            op = self.rng.choice(ARITH)
        elif roll < 0.95:
            op = self.rng.choice(("/", "%"))
        else:
            return Euop("neg", self.int_expr(depth - 1))
        return Ebop(op, self.int_expr(depth - 1), self.int_expr(depth - 1))

    def bool_atom(self):
        r = self.rng.random()
        if r < 0.3:
            return Econst(Vbool(self.rng.random() < 0.5))
        if r < 0.6:
            return Evar(self.rng.choice(self.bool_vars), BOOL_T)
        return Ebop(self.rng.choice(CMPS), self.int_atom(), self.int_atom())

    def bool_expr(self, depth: int):
        if depth <= 0 or self.rng.random() < 0.4:
            return self.bool_atom()
        r = self.rng.random()
        if r < 0.4:
            return Ebop("&&", self.bool_expr(depth - 1), self.bool_expr(depth - 1))
        if r < 0.8:
            return Ebop("||", self.bool_expr(depth - 1), self.bool_expr(depth - 1))
        return Euop("!", self.bool_expr(depth - 1))

    # -- statements ----------------------------------------------------------

    def assign_stmt(self):
        if self.rng.random() < 0.3:
            target = self.rng.choice(self.bool_vars)
            return Assign(Evar(target, BOOL_T), self.bool_expr(2))
        target = self.rng.choice(self.int_vars)
        return Assign(Evar(target, INT_T), self.int_expr(3))

    def counted_loop(self, depth: int):
        # while (v < bound) { v = v + 1; ... }: at most bound - (-8) rounds.
        v = self.rng.choice(self.int_vars)
        bound = self.rng.randint(1, 4)
        cond = Ebop("<", Evar(v, INT_T), Econst(Vint(bound, 64, True)))
        body = [Assign(Evar(v, INT_T),
                       Ebop("+", Evar(v, INT_T), Econst(Vint(1, 64, True))))]
        body += self.stmt_list(depth - 1, self.rng.randint(0, 2))
        return LoopWhile(cond, tuple(body))

    def stmt(self, depth: int):
        r = self.rng.random()
        if r < 0.45 or depth <= 0:
            return self.assign_stmt()
        if r < 0.55:
            return Snil()
        if r < 0.75:
            return If(self.bool_expr(2),
                      tuple(self.stmt_list(depth - 1, self.rng.randint(1, 3))),
                      tuple(self.stmt_list(depth - 1, self.rng.randint(0, 2)))
                      or (Snil(),))
        if r < 0.9:
            return self.counted_loop(depth)
        if r < 0.94:
            return Throw()
        return self.assign_stmt()

    def stmt_list(self, depth: int, length: int) -> list:
        return [self.stmt(depth) for _ in range(length)]

    def declarations(self) -> list:
        decls = [Var("public", Evar(a, INT_T)) for a in self.int_vars]
        decls += [Var("public", Evar(a, BOOL_T)) for a in self.bool_vars]
        # Give every variable a definite starting value.
        inits = [Assign(Evar(a, INT_T), Econst(Vint(self.rng.randint(-8, 8), 64, True)))
                 for a in self.int_vars]
        inits += [Assign(Evar(a, BOOL_T), Econst(Vbool(self.rng.random() < 0.5)))
                  for a in self.bool_vars]
        return decls + inits

    def program(self, length: int = 6) -> list:
        stmts = self.declarations() + self.stmt_list(MAX_DEPTH, length)
        if self.rng.random() < 0.15:
            stmts.append(Returns((self.int_expr(2),)))
        return stmts


def generate_program(seed: int, length: int = 6) -> list:
    gen = ProgramGen(random.Random(seed))
    prog = gen.program(length)
    typecheck_stmt(prog, TypeContext())
    return prog
