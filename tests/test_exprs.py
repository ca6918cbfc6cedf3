"""Expression layer: l/r evaluation and operators."""

import random
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minisol import memory as gm
from minisol.binder import bind_addresses
from minisol.engine import PathState, assignments, concretize, explore
from minisol.exprs import eval_bop, eval_lvalue, eval_rvalue, eval_uop
from minisol.memory import (
    Address,
    BoolPayload,
    FunctionInfo,
    IntPayload,
    MemoryState,
    MemoryValue,
    StructTypeInfo,
)
from minisol.parser import parse_source
from minisol.runner import build_world, entry_program, make_pre
from minisol.specfile import parse_spec
from minisol.stdlib import fresh_memory
from minisol.stmts import drive
from minisol.symbolic import SymExpr, SymOp, SymVar
from minisol.syntax import (
    Ebop,
    Econst,
    Efun,
    Estruct,
    Euop,
    Evar,
    LExpr,
    Snil,
    Tbool,
    Tuint,
    Varray,
    Vbool,
    Vint,
    Vmap,
)
from minisol.values import BlockInfo, Env, initial_env
from tests.test_values import ARR_T, build_chain, seeded_array


def iv(n, signed=False, width=64):
    return MemoryValue(IntPayload(n, width, signed))


def bv(b):
    return MemoryValue(BoolPayload(b))


class TestLValues:
    def test_reference_forms_return_their_address(self, sigma, env):
        a = Address(12)
        for e in (Evar(a, Tuint()), Efun(a, Tuint())):
            assert eval_lvalue(10, e, sigma, env) == a

    def test_reference_without_address_absent(self, sigma, env):
        assert eval_lvalue(10, Evar(None, Tuint()), sigma, env) is None

    def test_plain_constant_banned_on_left(self, sigma, env):
        assert eval_lvalue(10, Econst(Vbool(True)), sigma, env) is None
        assert eval_lvalue(10, Econst(Vint(3)), sigma, env) is None

    def test_operator_forms_banned_on_left(self, sigma, env):
        e = Ebop("+", Econst(Vint(1)), Econst(Vint(2)))
        assert eval_lvalue(10, e, sigma, env) is None

    def test_array_constant_resolves_to_element(self, sigma, env):
        e = Econst(Varray(ARR_T, (Econst(Vint(0)), Econst(Vint(1)),
                                  Econst(Vint(1))), Address(0)))
        assert eval_lvalue(10, e, sigma, env) == Address(6)

    def test_map_constant_resolves_to_node(self, sigma, env):
        seeded = build_chain(sigma, env, Address(0), [(10, 100)])
        e = Econst(Vmap(Address(0), (Econst(Vint(10)),), Tuint(), Tuint()))
        assert eval_lvalue(10, e, seeded, env) == Address(1)


class TestRValues:
    def test_constant(self, sigma, env):
        out = eval_rvalue(10, Econst(Vint(5)), sigma, env)
        assert out.payload == IntPayload(5)

    def test_variable_reads_through_validation(self, sigma, env):
        a = Address(7)
        seeded = gm.write(sigma, a, MemoryValue(IntPayload(9), domain=env.domain),
                          "dir")
        out = eval_rvalue(10, Evar(a, Tuint()), seeded, env)
        assert out.payload == IntPayload(9)
        assert eval_rvalue(10, Evar(Address(8), Tuint()), seeded, env) is None

    def test_efun_reads_return_slot(self, sigma, env):
        fun, lam = Address(20), Address(21)
        info = FunctionInfo((Tuint(),), (), lam, (Snil(),))
        seeded = gm.write(sigma, fun, MemoryValue(info, domain=env.domain), "dir")
        seeded = gm.write(seeded, lam, MemoryValue(IntPayload(123),
                                                   domain=env.domain), "dir")
        out = eval_rvalue(10, Efun(fun, Tuint()), seeded, env)
        assert out.payload == IntPayload(123)

    def test_comparison_small_grid_oracle(self, sigma, env):
        # Exhaustive small operand grid against native comparison.
        for a in range(-3, 4):
            for b in range(-3, 4):
                e = Ebop("<", Econst(Vint(a, 64, True)), Econst(Vint(b, 64, True)))
                out = eval_rvalue(10, e, sigma, env)
                assert out.payload.bit is (a < b)

    def test_k_budget_bounds_nesting(self, sigma, env):
        e = Econst(Vint(1))
        for _ in range(30):
            e = Ebop("+", e, Econst(Vint(1)))
        assert eval_rvalue(5, e, sigma, env) is None
        assert eval_rvalue(100, e, sigma, env).payload.value == 31

    def test_operand_failure_propagates(self, sigma, env):
        bad = Evar(Address(33), Tuint())  # free block
        for e in (Ebop("+", bad, Econst(Vint(1))),
                  Ebop("+", Econst(Vint(1)), bad)):
            assert eval_rvalue(10, e, sigma, env) is None


U64 = 2 ** 64


class TestBinaryOps:
    def test_addition(self):
        assert eval_bop("+", iv(2), iv(3)).payload == IntPayload(5)

    def test_unsigned_wraparound(self):
        out = eval_bop("+", iv(U64 - 1), iv(1))
        assert out.payload.value == 0

    def test_division_by_zero_absent(self):
        assert eval_bop("/", iv(1), iv(0)) is None
        assert eval_bop("%", iv(1), iv(0)) is None

    def test_signed_wraparound(self):
        big = 2 ** 63 - 1
        out = eval_bop("+", iv(big, True), iv(1, True))
        assert out.payload.value == -(2 ** 63)

    def test_kind_mismatch_absent(self):
        assert eval_bop("+", iv(1), bv(True)) is None
        assert eval_bop("&&", iv(1), iv(2)) is None
        assert eval_bop("+", iv(1, False, 64), iv(1, False, 32)) is None
        assert eval_bop("+", iv(1, True), iv(1, False)) is None

    def test_absent_operand_propagates(self):
        assert eval_bop("+", None, iv(1)) is None
        assert eval_bop("+", iv(1), None) is None

    def test_logical_ops(self):
        assert eval_bop("&&", bv(True), bv(False)).payload.bit is False
        assert eval_bop("||", bv(True), bv(False)).payload.bit is True
        assert eval_bop("==", bv(True), bv(True)).payload.bit is True

    @given(st.integers(0, U64 - 1), st.integers(0, U64 - 1),
           st.sampled_from(["+", "-", "*"]))
    @settings(max_examples=150, deadline=None)
    def test_unsigned_arithmetic_matches_bigint_oracle(self, a, b, op):
        native = {"+": a + b, "-": a - b, "*": a * b}[op] % U64
        out = eval_bop(op, iv(a), iv(b))
        assert out.payload.value == native

    @given(st.integers(-2 ** 63, 2 ** 63 - 1), st.integers(-2 ** 63, 2 ** 63 - 1))
    @settings(max_examples=100, deadline=None)
    def test_signed_division_truncates_toward_zero(self, a, b):
        if b == 0:
            assert eval_bop("/", iv(a, True), iv(b, True)) is None
            return
        import math
        expected = math.trunc(a / b) if abs(a) < 2 ** 52 and abs(b) < 2 ** 52 \
            else abs(a) // abs(b) * (-1 if (a < 0) != (b < 0) else 1)
        out = eval_bop("/", iv(a, True), iv(b, True))
        from minisol.symbolic import wrap_int
        assert out.payload.value == wrap_int(expected, 64, True)


class TestUnaryOps:
    def test_not(self):
        assert eval_uop("!", bv(True)).payload.bit is False

    def test_negation(self):
        assert eval_uop("neg", iv(-5, True)).payload.value == 5

    def test_negation_on_bool_absent(self):
        assert eval_uop("neg", bv(True)) is None

    def test_negation_on_unsigned_absent(self):
        assert eval_uop("neg", iv(5, False)) is None

    def test_min_value_wraps(self):
        out = eval_uop("neg", iv(-(2 ** 63), True))
        assert out.payload.value == -(2 ** 63)


class TestCoherence:
    def test_lr_coherence_on_random_references(self):
        # Wherever both positions resolve, the right value equals the
        # validated read at the left address (mapping entries compare
        # through their stored value).
        rng = random.Random(5)
        sigma = fresh_memory(100)
        env = initial_env(1000, gm.reserved_addresses(100)["0xglobal"])
        sigma = seeded_array(sigma, env)
        sigma = build_chain(sigma, env, Address(25), [(1, 11), (2, 22)])
        for i in range(40, 50):
            sigma = gm.write(sigma, Address(i),
                             MemoryValue(IntPayload(i), domain=env.domain), "dir")
        candidates = []
        for _ in range(120):
            kind = rng.random()
            if kind < 0.4:
                candidates.append(Evar(Address(rng.randint(40, 49)), Tuint()))
            elif kind < 0.7:
                path = (Econst(Vint(rng.randint(0, 2))),
                        Econst(Vint(rng.randint(0, 3))),
                        Econst(Vint(rng.randint(0, 2))))
                candidates.append(Econst(Varray(ARR_T, path, Address(0))))
            else:
                candidates.append(Econst(Vmap(Address(25),
                                              (Econst(Vint(rng.randint(1, 3))),),
                                              Tuint(), Tuint())))
        checked = 0
        for e in candidates:
            a = eval_lvalue(50, e, sigma, env)
            r = eval_rvalue(50, e, sigma, env)
            if a is None or r is None:
                continue
            direct = gm.read(sigma, a, "chck", env)
            if isinstance(direct.payload, gm.MapNode):
                assert r.payload == direct.payload.kv[1]
            else:
                assert r.payload == direct.payload
            checked += 1
        assert checked > 30

    def test_determinism(self, sigma, env):
        e = Ebop("*", Ebop("+", Econst(Vint(3)), Econst(Vint(4))), Econst(Vint(5)))
        runs = {str(eval_rvalue(20, e, sigma, env).payload) for _ in range(10)}
        assert len(runs) == 1


def lit(n, signed=False):
    return Econst(Vint(n, 64, signed))


def plus_chain(depth, left):
    """``depth`` nested ``+`` over literals, nested on the left or the right."""
    e = lit(1)
    for i in range(depth):
        e = Ebop("+", e, lit(i)) if left else Ebop("+", lit(i), e)
    return e


def min_k(e, sigma, env):
    """The smallest K at which ``e`` evaluates, after checking that every
    larger K up to 200 gives the same value."""
    results = [eval_rvalue(K, e, sigma, env) for K in range(1, 200)]
    k = next(i for i, r in enumerate(results, 1) if r is not None)
    assert all(r == results[k - 1] for r in results[k - 1:])
    return k


class TestKBudget:
    """The K budget of each expression kind: each nested evaluation costs
    one level, a literal costs one more (its value) and an index or key
    two more (the value and its address)."""

    @pytest.mark.parametrize("left", [True, False])
    @pytest.mark.parametrize("depth", [1, 5, 30])
    def test_plus_chain(self, sigma, env, depth, left):
        assert min_k(plus_chain(depth, left), sigma, env) == depth + 2

    def test_unary_operators(self, sigma, env):
        assert min_k(Euop("!", Econst(Vbool(False))), sigma, env) == 3
        assert min_k(Euop("neg", lit(3, signed=True)), sigma, env) == 3
        assert min_k(Euop("!", Euop("!", Econst(Vbool(True)))), sigma, env) == 4

    def test_literal_and_reference(self, sigma, env):
        a = Address(7)
        seeded = gm.write(sigma, a, MemoryValue(IntPayload(9), domain=env.domain), "dir")
        assert min_k(lit(7), sigma, env) == 2
        assert min_k(Evar(a, Tuint()), seeded, env) == 1
        assert min_k(Ebop("+", Evar(a, Tuint()), Evar(a, Tuint())), seeded, env) == 2
        assert min_k(Ebop("+", Evar(a, Tuint()), lit(1)), seeded, env) == 3

    def test_array_element(self, sigma, env):
        seeded = seeded_array(sigma, env)
        seeded = gm.write(seeded, Address(6), MemoryValue(IntPayload(42), domain=env.domain),
                          "dir")
        seeded = gm.write(seeded, Address(30), MemoryValue(IntPayload(1), domain=env.domain),
                          "dir")
        i = Evar(Address(30), Tuint())
        assert min_k(Econst(Varray(ARR_T, (lit(0), lit(1), lit(1)), Address(0))),
                     seeded, env) == 4
        assert min_k(Econst(Varray(ARR_T, (Ebop("-", i, i), i, i), Address(0))),
                     seeded, env) == 4
        assert min_k(Econst(Varray(ARR_T, (Ebop("-", i, i), i, Ebop("*", i, lit(1))),
                                   Address(0))), seeded, env) == 5

    def test_mapping_entry(self, sigma, env):
        seeded = build_chain(sigma, env, Address(0), [(5, 50), (6, 60)])
        seeded = gm.write(seeded, Address(30), MemoryValue(IntPayload(6), domain=env.domain),
                          "dir")
        k = Evar(Address(30), Tuint())
        entry = lambda key: Econst(Vmap(Address(0), (key,), Tuint(), Tuint()))
        assert min_k(entry(lit(6)), seeded, env) == 5
        assert min_k(entry(k), seeded, env) == 4
        assert min_k(entry(Ebop("+", lit(5), lit(1))), seeded, env) == 6

    def test_struct_and_function(self, sigma, env):
        ty, fun, lam = Address(10), Address(20), Address(21)
        info = StructTypeInfo(ty, (("x", Tuint()), ("b", Tbool())))
        seeded = gm.write(sigma, ty, MemoryValue(info, domain=env.domain), "dir")
        assert min_k(Estruct(ty, (Vint(1), Vbool(True))), seeded, env) == 3
        fun_info = FunctionInfo((Tuint(),), (), lam, (Snil(),))
        seeded = gm.write(seeded, fun, MemoryValue(fun_info, domain=env.domain), "dir")
        seeded = gm.write(seeded, lam, MemoryValue(IntPayload(123), domain=env.domain), "dir")
        assert min_k(Efun(fun, Tuint()), seeded, env) == 1


def expr_nodes(obj):
    """Every expression node reachable from ``obj`` through dataclass
    fields, tuples and lists."""
    if isinstance(obj, LExpr):
        yield obj
    if is_dataclass(obj) and not isinstance(obj, type):
        for f in fields(obj):
            yield from expr_nodes(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from expr_nodes(item)


def assert_closures_hold_node_data_only(nodes):
    compiled = [e.compiled for e in nodes if e.compiled is not None]
    assert compiled
    for run in compiled:
        assert run.__closure__ is None  # no cells: node data are default arguments
        assert not any(isinstance(d, (MemoryState, Env))
                       for d in run.__defaults__ or ())


class TestClosuresHoldNoState:
    """A node's closure is compiled once and shared by every state, domain
    and path that evaluates the node, so its results must be those of a
    freshly built node that has never been evaluated."""

    OWNER, FOREIGN = Address(40), Address(41)

    def node(self):
        a, b = Evar(Address(7), Tuint()), Evar(Address(8), Tuint())
        # (a + 1 < 10 - b) == !(b == a): literal operands on both sides
        return Ebop("==", Ebop("<", Ebop("+", a, lit(1)), Ebop("-", lit(10), b)),
                    Euop("!", Ebop("==", b, a)))

    def states(self, sigma, env):
        def put(s, i, value, domain=env.domain, access=gm.PUBLIC):
            return gm.write(s, Address(i), MemoryValue(IntPayload(value), domain, access),
                            "dir")
        base = put(put(sigma, 7, 2), 8, 3)
        private = put(put(sigma, 7, 2, self.OWNER, gm.PRIVATE), 8, 3)
        return {
            "concrete": (base, env),
            "another state": (put(put(sigma, 7, 6), 8, 5), env),
            "owner reads a private block": (private, Env(env.gas, self.OWNER)),
            "foreign domain reads it": (private, Env(env.gas, self.FOREIGN)),
            "symbolic operand": (put(base, 7, SymVar("x")), env),
        }

    def test_one_node_gives_what_a_fresh_node_gives(self, sigma, env):
        shared = self.node()
        results = {}
        for name, (state, e) in self.states(sigma, env).items():
            fresh = self.node()
            assert fresh.compiled is None
            results[name] = eval_rvalue(20, shared, state, e)
            assert results[name] == eval_rvalue(20, fresh, state, e), name
        assert results["concrete"].payload == BoolPayload(True)
        assert results["another state"].payload == BoolPayload(False)
        assert results["owner reads a private block"].domain == self.OWNER
        assert results["foreign domain reads it"] is None
        assert isinstance(results["symbolic operand"].payload.bit, SymExpr)
        assert_closures_hold_node_data_only(expr_nodes(shared))

    def test_forked_paths_share_nodes_and_agree_with_fresh_programs(self):
        source = open("tests/golden/branchy.lls", encoding="utf-8").read()
        spec = parse_spec(open("tests/golden/branchy.spec", encoding="utf-8").read())
        bound = bind_addresses(parse_source(source), 100)
        prog, _ = entry_program(bound, "f")
        sigma, env = make_pre(bound, 10_000, BlockInfo(), symbols=spec.symbols)(None)
        paths = explore(1000, PathState(sigma, env, (), prog, sigma,
                                        models=tuple(assignments(spec.symbols))))
        assert len(paths) >= 2
        for p in paths:
            for asg in p.models.all:
                fresh = bind_addresses(parse_source(source), 100)
                world = build_world(fresh, 10_000, BlockInfo(), arg_writes=sorted(asg.items()))
                run = drive(1000, world.sigma, world.env, world.sigma,
                            entry_program(fresh, "f")[0])
                assert concretize(p.sigma, asg).blocks == run.final().blocks
        assert_closures_hold_node_data_only(expr_nodes(bound.decls))


class TestAbsentReferences:
    def test_rvalue_of_unaddressed_reference_absent(self, sigma, env):
        assert eval_rvalue(10, Evar(None, Tuint()), sigma, env) is None
        assert eval_rvalue(10, Efun(None, Tuint()), sigma, env) is None


def test_every_expression_class_has_a_rule_or_is_named_absent():
    import inspect
    from minisol import exprs, syntax
    classes = {cls for _, cls in inspect.getmembers(syntax, inspect.isclass)
               if cls.__module__ == syntax.__name__ and issubclass(cls, syntax.LExpr)
               and cls is not syntax.LExpr}
    assert set(exprs._COMPILERS) == classes
    assert all(len(inspect.signature(compiler).parameters) == 1
               for compiler in exprs._COMPILERS.values())


# Operand pairs for the operator-guard grid: (name, left payload, right
# payload). Each pair's values exercise wraparound and, where an operand
# is an integer, a zero divisor on the right.
_GUARD_PAIRS = (
    ("u64/u64", IntPayload(U64 - 1, 64, False), IntPayload(2, 64, False)),
    ("u64/u64 zero", IntPayload(7, 64, False), IntPayload(0, 64, False)),
    ("u8/u8", IntPayload(250, 8, False), IntPayload(9, 8, False)),
    ("u8/u8 zero", IntPayload(3, 8, False), IntPayload(0, 8, False)),
    ("u8/u64", IntPayload(250, 8, False), IntPayload(9, 64, False)),
    ("i64/i64", IntPayload(-7, 64, True), IntPayload(2, 64, True)),
    ("i64/i64 max", IntPayload(2 ** 63 - 1, 64, True), IntPayload(-1, 64, True)),
    ("u64/i64", IntPayload(7, 64, False), IntPayload(2, 64, True)),
    ("bool/bool", BoolPayload(True), BoolPayload(False)),
    ("bool/bool same", BoolPayload(False), BoolPayload(False)),
    ("int/bool", IntPayload(1, 64, False), BoolPayload(True)),
    ("bool/int", BoolPayload(True), IntPayload(1, 64, False)),
)


def _expected_bop(op, lp, rp):
    """The payload ``eval_bop`` must give, or None for an absent result,
    by the rules stated independently of the operator table."""
    from minisol.symbolic import SymConst, SymExpr, SymOp, wrap_int
    if type(lp) is IntPayload and type(rp) is IntPayload:
        if (lp.width, lp.signed) != (rp.width, rp.signed):
            return None
        arith = op in ("+", "-", "*", "/", "%")
        if not arith and op not in ("<", ">", "<=", ">=", "==", "!="):
            return None
        a, b = lp.value, rp.value
    elif type(lp) is BoolPayload and type(rp) is BoolPayload:
        arith = False
        if op not in ("&&", "||", "==", "!="):
            return None
        a, b = lp.bit, rp.bit
    else:
        return None
    width, signed = (lp.width, lp.signed) if arith else (0, False)
    if isinstance(a, SymExpr) or isinstance(b, SymExpr):
        lift = [x if isinstance(x, SymExpr) else SymConst(x) for x in (a, b)]
        r = SymOp(op, tuple(lift), width, signed)
    elif op in ("/", "%") and b == 0:
        return None
    else:
        q = abs(a) // abs(b) * (-1 if (a < 0) != (b < 0) else 1) if op in ("/", "%") else 0
        r = {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
             "/": lambda: q, "%": lambda: a - q * b,
             "<": lambda: a < b, ">": lambda: a > b, "<=": lambda: a <= b,
             ">=": lambda: a >= b, "==": lambda: a == b, "!=": lambda: a != b,
             "&&": lambda: a and b, "||": lambda: a or b}[op]()
        if arith:
            r = wrap_int(r, width, signed)
    return IntPayload(r, width, signed) if arith else BoolPayload(r)


def _symbolic_left(p):
    from minisol.symbolic import SymVar
    if type(p) is IntPayload:
        return IntPayload(SymVar("x"), p.width, p.signed)
    return BoolPayload(SymVar("x"))


class TestOperatorGuards:
    """Every binary operator of the one table over every payload pair, with
    both operands concrete and with the left one symbolic: the result's
    class and value, or its absence, and the left operand's tags."""

    BINARY = [op for op in __import__("minisol.symbolic", fromlist=["OPS"]).OPS
              if op not in ("!", "neg")]

    def test_binary_operators_are_the_table_minus_the_unary_ones(self):
        assert sorted(self.BINARY) == sorted(
            ["+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=", "&&", "||"])

    def _check(self, op, lp, rp):
        lhs = MemoryValue(lp, domain=Address(5), access=gm.PRIVATE)
        rhs = MemoryValue(rp, domain=Address(6))
        want = _expected_bop(op, lp, rp)
        out = eval_bop(op, lhs, rhs)
        if want is None:
            assert out is None, (op, lp, rp)
            return 0
        assert out is not None, (op, lp, rp)
        assert type(out.payload) is type(want), (op, lp, rp)
        assert out.payload == want, (op, lp, rp)
        got = out.payload.value if type(want) is IntPayload else out.payload.bit
        assert type(got) is type(want.value if type(want) is IntPayload else want.bit)
        assert (out.domain, out.access, out.occupancy) == (Address(5), gm.PRIVATE, gm.OCCUPY)
        return 1

    def test_concrete_operands(self):
        present = sum(self._check(op, lp, rp)
                      for op in self.BINARY for _name, lp, rp in _GUARD_PAIRS)
        # 6 matching integer pairs x 11 operators, minus 4 zero divisors,
        # plus 2 boolean pairs x 4 operators
        assert present == 6 * 11 - 4 + 2 * 4

    def test_one_symbolic_operand(self):
        present = 0
        for op in self.BINARY:
            for _name, lp, rp in _GUARD_PAIRS:
                present += self._check(op, _symbolic_left(lp), rp)
                present += self._check(op, lp, _symbolic_left(rp))
        # a symbolic divisor or dividend is never absent
        assert present == 2 * (6 * 11 + 2 * 4)

    def test_unset_operand_is_absent(self):
        for op in self.BINARY:
            assert eval_bop(op, iv(None), iv(1)) is None
            assert eval_bop(op, iv(1), iv(None)) is None
            assert eval_bop(op, bv(None), bv(True)) is None

    def test_concrete_bits_are_two_shared_payloads(self, sigma, env):
        for bit in (True, False):
            payloads = [eval_bop("<", iv(1), iv(2 if bit else 0)).payload,
                        eval_bop("==", bv(True), bv(bit)).payload,
                        eval_bop("||", bv(False), bv(bit)).payload,
                        eval_uop("!", bv(not bit)).payload,
                        eval_rvalue(10, Ebop(">=", lit(2), lit(1 if bit else 3)), sigma,
                                    env).payload]
            assert payloads[0] == BoolPayload(bit)
            assert all(p is payloads[0] for p in payloads)
        assert eval_uop("!", bv(SymVar("x"))).payload == BoolPayload(SymOp("!", (SymVar("x"),)))

    def test_unary_and_unknown_operator_names_are_absent(self):
        for op in ("!", "neg", "**", "&", ""):
            assert eval_bop(op, iv(1), iv(2)) is None
            assert eval_bop(op, bv(True), bv(False)) is None


# ---------------------------------------------------------------------------
# A compiled operator node against eval_bop, its reference semantics

_OWN, _OTHER = Address(40), Address(41)
_FRESH = fresh_memory(100)  # states are values, so every example may start from it


def _int_values(width, signed):
    lo, hi = (-(1 << (width - 1)), (1 << (width - 1)) - 1) if signed else (0, (1 << width) - 1)
    edges = sorted({lo, lo + 1, -1 if signed else 2, 0, 1, hi - 1, hi})
    return st.one_of(st.sampled_from(edges), st.integers(lo, hi))


_INT_SHAPES = st.tuples(st.sampled_from([8, 64]), st.booleans())


@st.composite
def _operand_payloads(draw, shape):
    """A payload for one operand: usually an integer of ``shape``, else
    another width or signedness, a bool, a symbol or an unset value."""
    width, signed = draw(st.one_of(st.just(shape), _INT_SHAPES))
    kind = draw(st.sampled_from(["int", "int", "int", "bool", "symbol", "unset"]))
    if kind == "bool":
        return BoolPayload(draw(st.one_of(st.booleans(), st.just(SymVar("p")))))
    value = {"int": lambda: draw(_int_values(width, signed)),
             "symbol": lambda: SymVar("x"), "unset": lambda: None}[kind]()
    return IntPayload(value, width, signed)


@st.composite
def _operand(draw, shape, index):
    """An operand node over block ``index``: readable, foreign-private or
    free, or a reference with no address."""
    block = draw(st.sampled_from(["readable", "readable", "readable", "foreign", "free",
                                  "no address"]))
    if block == "no address":
        return Evar(None, Tuint()), None
    if block == "free":
        return Evar(Address(index), Tuint()), None
    access = gm.PRIVATE if block == "foreign" else draw(st.sampled_from([gm.PUBLIC, gm.PRIVATE]))
    domain = _OTHER if block == "foreign" else _OWN
    return Evar(Address(index), Tuint()), MemoryValue(draw(_operand_payloads(shape)),
                                                      domain, access)


def _exactly(mv):
    """A memory value with the Python class of its payload's contents."""
    if mv is None:
        return None
    p = mv.payload
    return mv, type(p), type(p.value if type(p) is IntPayload else p.bit)


class TestCompiledOperatorsAgreeWithEvalBop:
    @given(op=st.sampled_from(TestOperatorGuards.BINARY), shape=_INT_SHAPES, data=st.data(),
           literal=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_a_compiled_node_gives_eval_bops_value(self, op, shape, data, literal):
        sigma, env = _FRESH, Env(10_000, _OWN)
        left, left_block = data.draw(_operand(shape, 7))
        if literal:
            width, signed = data.draw(st.one_of(st.just(shape), _INT_SHAPES))
            right = Econst(Vint(data.draw(_int_values(width, signed)), width, signed))
            right_block = None
        else:
            right, right_block = data.draw(_operand(shape, 8))
        for node, value in ((left, left_block), (right, right_block)):
            if value is not None:
                sigma = gm.write(sigma, node.addr, value, "dir")
        node = Ebop(op, left, right)
        want = eval_bop(op, eval_rvalue(20, left, sigma, env), eval_rvalue(20, right, sigma, env))
        assert _exactly(eval_rvalue(20, node, sigma, env)) == _exactly(want)
        assert node.compiled is not None
