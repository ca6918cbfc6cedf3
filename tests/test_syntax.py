"""Typed AST: static checking, flat statement lists, interchange."""

import random

import pytest

from minisol.memory import Address
from minisol.syntax import (
    Assign,
    Ebop,
    Econst,
    Estruct,
    Euop,
    Evar,
    Fun,
    FunCall,
    If,
    LoopWhile,
    LStatement,
    LTypeError,
    Returns,
    Snil,
    StructDecl,
    Tarray,
    Tbool,
    Tfid,
    Tint,
    Tmap,
    Tstruct,
    Throw,
    Tuint,
    TypeContext,
    Var,
    Varray,
    Vbool,
    Vint,
    Vmap,
    Vstruct,
    array_dims,
    program_from_data,
    program_to_data,
    typecheck_expr,
    typecheck_stmt,
)


def ctx_with_var(addr, ltype):
    ctx = TypeContext()
    ctx.vars[addr] = ltype
    return ctx


class TestExprTyping:
    def test_bool_constant(self):
        assert typecheck_expr(Econst(Vbool(True)), TypeContext()) == Tbool()

    def test_int_constant_keeps_width_and_sign(self):
        t = typecheck_expr(Econst(Vint(5, 32, True)), TypeContext())
        assert t == Tint(32, True)

    def test_mixed_arithmetic_rejected(self):
        # Signed and unsigned 64-bit do not mix; neither do widths.
        bad = Ebop("+", Econst(Vint(1, 64, False)), Econst(Vint(1, 64, True)))
        with pytest.raises(LTypeError):
            typecheck_expr(bad, TypeContext())
        bad2 = Ebop("+", Econst(Vint(1, 64, False)), Econst(Vint(1, 32, False)))
        with pytest.raises(LTypeError):
            typecheck_expr(bad2, TypeContext())

    def test_comparison_yields_bool(self):
        e = Ebop("<", Econst(Vint(3)), Econst(Vint(7)))
        assert typecheck_expr(e, TypeContext()) == Tbool()

    def test_logic_needs_bools(self):
        with pytest.raises(LTypeError):
            typecheck_expr(Ebop("&&", Econst(Vint(1)), Econst(Vbool(True))),
                           TypeContext())

    def test_negation_needs_signed(self):
        with pytest.raises(LTypeError):
            typecheck_expr(Euop("neg", Econst(Vint(1, 64, False))), TypeContext())
        ok = typecheck_expr(Euop("neg", Econst(Vint(1, 64, True))), TypeContext())
        assert ok == Tint(64, True)

    def test_type_of_a_binary_operator(self):
        e = Ebop("+", Econst(Vint(1)), Econst(Vint(2)))
        assert typecheck_expr(e, TypeContext()) == Tuint()

    def test_array_value_needs_full_index_path(self):
        arr = Tarray(2, Tarray(3, Tuint()))
        good = Econst(Varray(arr, (Econst(Vint(0)), Econst(Vint(1))), Address(0)))
        assert typecheck_expr(good, TypeContext()) == Tuint()
        short = Econst(Varray(arr, (Econst(Vint(0)),), Address(0)))
        with pytest.raises(LTypeError):
            typecheck_expr(short, TypeContext())

    def test_mapping_value_type_walk(self):
        inner = Tmap(Tuint(), Tbool())
        nested = Econst(Vmap(Address(0), (Econst(Vint(1)), Econst(Vint(2))),
                             Tuint(), inner))
        assert typecheck_expr(nested, TypeContext()) == Tbool()

    def test_mapping_key_type_mismatch(self):
        m = Econst(Vmap(Address(0), (Econst(Vbool(True)),), Tuint(), Tbool()))
        with pytest.raises(LTypeError):
            typecheck_expr(m, TypeContext())


STRUCT_ADDR = Address(40)


def struct_ctx():
    ctx = TypeContext()
    ctx.structs[STRUCT_ADDR] = (("a", Tuint()), ("b", Tbool()))
    return ctx


class TestStructTyping:
    def test_struct_literal_ok(self):
        e = Estruct(STRUCT_ADDR, (Vint(1), Vbool(True)))
        assert typecheck_expr(e, struct_ctx()) == Tstruct(STRUCT_ADDR)

    def test_struct_arity_error(self):
        with pytest.raises(LTypeError):
            typecheck_expr(Estruct(STRUCT_ADDR, (Vint(1),)), struct_ctx())

    def test_struct_field_type_error(self):
        with pytest.raises(LTypeError):
            typecheck_expr(Estruct(STRUCT_ADDR, (Vint(1), Vint(2))), struct_ctx())

    def test_random_mutations_rejected_exactly(self):
        # Mutated field lists must be rejected; pristine ones accepted.
        rng = random.Random(7)
        for _ in range(100):
            members = tuple((f"m{i}", Tuint() if rng.random() < 0.5 else Tbool())
                            for i in range(rng.randint(1, 5)))
            ctx = TypeContext()
            ctx.structs[STRUCT_ADDR] = members
            values = tuple(Vint(rng.randint(0, 9)) if isinstance(t, Tint)
                           else Vbool(bool(rng.getrandbits(1)))
                           for _n, t in members)
            mutate = rng.random() < 0.5
            if mutate:
                idx = rng.randrange(len(values))
                flipped = (Vbool(True) if isinstance(values[idx], Vint)
                           else Vint(0))
                values = values[:idx] + (flipped,) + values[idx + 1:]
            e = Estruct(STRUCT_ADDR, values)
            if mutate:
                with pytest.raises(LTypeError):
                    typecheck_expr(e, ctx)
            else:
                assert typecheck_expr(e, ctx) == Tstruct(STRUCT_ADDR)


class TestStmtTyping:
    def test_skip_program_ok(self):
        typecheck_stmt([Snil()], TypeContext())

    def test_non_bool_condition_rejected(self):
        bad = If(Econst(Vint(1)), (Snil(),), (Snil(),))
        with pytest.raises(LTypeError):
            typecheck_stmt([bad], TypeContext())

    def test_assignment_type_mismatch(self):
        a = Address(0)
        prog = [Var("public", Evar(a, Tuint())),
                Assign(Evar(a, Tuint()), Econst(Vbool(True)))]
        with pytest.raises(LTypeError):
            typecheck_stmt(prog, TypeContext())

    def test_duplicate_declaration_rejected(self):
        a = Address(0)
        prog = [Var("public", Evar(a, Tuint())), Var("public", Evar(a, Tbool()))]
        with pytest.raises(LTypeError):
            typecheck_stmt(prog, TypeContext())

    def test_return_must_match_declared_type(self):
        f = Fun(Address(9), (), (), (Tbool(),),
                (Returns((Econst(Vint(1)),)),), Address(10))
        with pytest.raises(LTypeError):
            typecheck_stmt([f], TypeContext())
        ok = Fun(Address(9), (), (), (Tbool(),),
                 (Returns((Econst(Vbool(True)),)),), Address(10))
        typecheck_stmt([ok], TypeContext())

    def test_wallet_program_typechecks(self):
        from minisol.binder import bind_addresses
        from minisol.parser import parse_source
        source = open("samples/wallet.lls", encoding="utf-8").read()
        bound = bind_addresses(parse_source(source), 100)  # raises on failure
        assert any(isinstance(s, Fun) for s in bound.decls)

    def test_assignment_from_field_call_allowed(self):
        # Only a call statement calls: a function-id right side is an
        # ordinary value, whose type does not match a bool block.
        from minisol.syntax import Vfield
        ctx = TypeContext()
        ctx.structs[STRUCT_ADDR] = (("send", Tfid(None)),)
        a = Address(0)
        prog = [Var("public", Evar(a, Tbool())),
                Assign(Evar(a, Tbool()),
                       Econst(Vfield(Tfid(None), STRUCT_ADDR, Address(41),
                                     ("send",))))]
        with pytest.raises(LTypeError, match="assignment type mismatch: bool != fid"):
            typecheck_stmt(prog, ctx)


class TestNormalizeSeq:
    """The binder emits flat statement lists: every item is a statement."""

    def test_wallet_body_statement_order(self):
        # Hand count of the source body: 8 local declarations, 9 branch
        # statements, 3 top-level assignments (the index initializer and
        # the two limit computations).
        from minisol.binder import bind_addresses
        from minisol.parser import parse_source
        source = open("samples/wallet.lls", encoding="utf-8").read()
        bound = bind_addresses(parse_source(source), 100)
        fun = next(s for s in bound.decls if isinstance(s, Fun))
        kinds = [type(s).__name__ for s in fun.body]
        assert kinds.count("Var") == 8
        assert kinds.count("If") == 9
        assert kinds.count("Assign") == 3
        assert len(fun.body) == 20
        assert all(isinstance(s, LStatement) for s in fun.body)


class TestInterchange:
    def test_round_trip_program(self):
        a = Address(0)
        prog = [
            Var("public", Evar(a, Tuint())),
            StructDecl(STRUCT_ADDR, (("a", Tuint()), ("b", Tbool()))),
            Assign(Evar(a, Tuint()), Ebop("+", Econst(Vint(1)), Econst(Vint(2)))),
            If(Ebop("<", Evar(a, Tuint()), Econst(Vint(5))),
               (Throw(),), (Snil(),)),
            LoopWhile(Econst(Vbool(False)), (Snil(),)),
            Fun(Address(9), (), (Evar(Address(10), Tuint()),), (Tuint(),),
                (Returns((Evar(Address(10), Tuint()),)),), Address(11)),
            Fun(Address(12), (), (), (Tbool(),), (Snil(),), Address(13)),
            FunCall(Evar(Address(9), Tfid(None)).__class__(Address(9), Tfid(None)),
                    (Econst(Vint(3)),)),
        ]
        data = program_to_data(prog)
        back = program_from_data(data)
        assert back == prog

    def test_round_trip_wallet(self):
        import json
        from minisol.binder import bind_addresses
        from minisol.parser import parse_source
        source = open("samples/wallet.lls", encoding="utf-8").read()
        bound = bind_addresses(parse_source(source), 100)
        data = json.loads(json.dumps(program_to_data(bound.decls)))
        assert program_from_data(data) == bound.decls

    def test_every_node_class_has_one_format_entry(self):
        import inspect
        from minisol import syntax
        categories = (syntax.LType, syntax.LValue, syntax.LExpr, syntax.LStatement)
        nodes = [cls for _, cls in inspect.getmembers(syntax, inspect.isclass)
                 if cls.__module__ == syntax.__name__ and issubclass(cls, categories)
                 and cls not in categories]
        assert sorted(syntax.FORMAT, key=str) == sorted(nodes, key=str)
        # a kind names one class per category, so decoding is unambiguous
        tags = [(category, kind) for cls, (kind, _) in syntax.FORMAT.items()
                for category in categories if issubclass(cls, category)]
        assert len(tags) == len(set(tags)) == len(nodes)

    def test_runtime_only_statement_is_not_serializable(self):
        from minisol.syntax import LStatement

        class RuntimeOnly(LStatement):
            pass

        with pytest.raises(TypeError):
            program_to_data([RuntimeOnly()])


def test_array_dims_helper():
    t = Tarray(2, Tarray(3, Tarray(2, Tuint())))
    dims, base = array_dims(t)
    assert tuple(dims) == (2, 3, 2)
    assert base == Tuint()
