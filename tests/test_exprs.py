"""Expression layer: l/r evaluation, operators, extraction."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from minisol import memory as gm
from minisol.exprs import eval_bop, eval_lvalue, eval_rvalue, eval_uop, extract
from minisol.memory import (
    Address,
    BoolPayload,
    FunctionInfo,
    IntPayload,
    MemoryValue,
    StatementBody,
)
from minisol.stdlib import fresh_memory
from minisol.syntax import (
    Ebop,
    Econ,
    Econst,
    Efun,
    Emodifier,
    Epar,
    Evar,
    Snil,
    Tuint,
    Varray,
    Vbool,
    Vint,
    Vmap,
)
from minisol.values import initial_env
from tests.test_values import ARR_T, build_chain, seeded_array


def iv(n, signed=False, width=64):
    return MemoryValue(IntPayload(n, width, signed))


def bv(b):
    return MemoryValue(BoolPayload(b))


class TestLValues:
    def test_reference_forms_return_their_address(self, sigma, env):
        a = Address(12)
        for e in (Evar(a, Tuint()), Efun(a, Tuint()), Econ(a), Epar(a)):
            assert eval_lvalue(10, e, sigma, env) == a

    def test_reference_without_address_absent(self, sigma, env):
        assert eval_lvalue(10, Evar(None, Tuint()), sigma, env) is None

    def test_plain_constant_banned_on_left(self, sigma, env):
        assert eval_lvalue(10, Econst(Vbool(True)), sigma, env) is None
        assert eval_lvalue(10, Econst(Vint(3)), sigma, env) is None

    def test_operator_forms_banned_on_left(self, sigma, env):
        e = Ebop("+", Econst(Vint(1)), Econst(Vint(2)))
        assert eval_lvalue(10, e, sigma, env) is None
        assert eval_lvalue(10, Emodifier(), sigma, env) is None

    def test_array_constant_resolves_to_element(self, sigma, env):
        e = Econst(Varray(ARR_T, (Econst(Vint(0)), Econst(Vint(1)),
                                  Econst(Vint(1))), Address(0)))
        assert eval_lvalue(10, e, sigma, env) == Address(6)

    def test_map_constant_resolves_to_node(self, sigma, env):
        seeded = build_chain(sigma, env, Address(0), [(10, 100)])
        e = Econst(Vmap(Address(0), (Econst(Vint(10)),), Tuint(), Tuint(), None))
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


class TestExtract:
    def test_bool_kind(self):
        assert extract(bv(True), "bool") is True
        assert extract(bv(False), "bool") is False

    def test_wrong_kind_absent(self):
        assert extract(iv(1), "bool") is None
        assert extract(bv(True), "stmts") is None
        assert extract(None, "bool") is None

    def test_statement_bodies(self):
        body = (Snil(), Snil())
        assert extract(MemoryValue(FunctionInfo((), (), None, body)), "stmts") == body
        assert extract(MemoryValue(StatementBody(body)), "stmts") == body


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
                                              Tuint(), Tuint(), None)))
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


class TestAbsentReferences:
    def test_rvalue_of_unaddressed_reference_absent(self, sigma, env):
        assert eval_rvalue(10, Evar(None, Tuint()), sigma, env) is None
        assert eval_rvalue(10, Efun(None, Tuint()), sigma, env) is None
        assert eval_rvalue(10, Econ(None), sigma, env) is None

    def test_modifier_expression_absent_both_positions(self, sigma, env):
        assert eval_rvalue(10, Emodifier(), sigma, env) is None
        assert eval_lvalue(10, Emodifier(), sigma, env) is None


def test_every_expression_class_has_a_rule_or_is_named_absent():
    import inspect
    from minisol import exprs, syntax
    absent = {Emodifier}  # has no value in either position
    classes = {cls for _, cls in inspect.getmembers(syntax, inspect.isclass)
               if cls.__module__ == syntax.__name__ and issubclass(cls, syntax.LExpr)
               and cls is not syntax.LExpr}
    assert set(exprs._RULES) == classes - absent
    assert all(len(inspect.signature(rule).parameters) == 4
               for rule in exprs._RULES.values())
