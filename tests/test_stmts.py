"""Statement layer: environment checks, array math, declarations,
control flow, calls, modifiers, throw."""

import math
from dataclasses import replace

import pytest

from minisol import memory as gm
from minisol.layout import array_layout, elem_offset
from minisol.memory import (
    Address,
    ArrayGroup,
    BoolPayload,
    ContractInfo,
    FunctionInfo,
    IntPayload,
    MapNode,
    MemoryState,
    MemoryValue,
    StructTypeInfo,
    Undef,
)
from minisol.engine import interpret
from minisol.stmts import BUDGET, ExecContext, drive, env_check, init_array, init_var
from minisol.syntax import (
    Assign,
    Contract,
    Ebop,
    Econst,
    Efun,
    Evar,
    Fun,
    FunCall,
    FunStop,
    If,
    LoopFor,
    LoopWhile,
    Modifier,
    Return,
    Returns,
    Snil,
    StructDecl,
    Tarray,
    Tbool,
    Tfid,
    Throw,
    Tmap,
    Tuint,
    Var,
    Vbool,
    Vint,
    Vmap,
)
from minisol.values import Env, initial_env


class TestEnvCheck:
    def test_gas_zero_fails(self, names):
        env = Env(0, 10, 1, names["0xglobal"])
        assert env_check(env, env) is False

    def test_same_domain_same_level_passes(self, names):
        env = Env(5, 10, 1, names["0xglobal"])
        assert env_check(env, env) is True

    def test_same_domain_different_level_fails(self, names):
        env = Env(5, 10, 0, names["0xglobal"])
        fenv = Env(5, 10, 1, names["0xglobal"])
        assert env_check(env, fenv) is False

    def test_different_domain_any_level_passes(self, names):
        env = Env(5, 10, 0, Address(3))
        fenv = Env(5, 10, 1, names["0xglobal"])
        assert env_check(env, fenv) is True

    @pytest.mark.parametrize("env, fenv", [
        ((0, 1, None), (5, 1, None)), ((5, 1, None), (5, 1, None)),
        ((5, 0, None), (5, 1, None)), ((5, 0, 3), (5, 1, None))])
    def test_drive_stops_on_budget_exactly_when_the_check_fails(self, sigma, names, env,
                                                                 fenv):
        def make(gas, level, domain):
            return Env(gas, 10, level, names["0xglobal"] if domain is None else Address(domain))
        env, fenv = make(*env), make(*fenv)
        run = drive(10, sigma, env, fenv, ExecContext(), (Snil(),), once=True)
        assert (run.stop == BUDGET) is not env_check(env, fenv)


def test_every_statement_class_has_one_rule():
    import inspect
    from minisol import stmts, syntax
    classes = [cls for _, cls in inspect.getmembers(syntax, inspect.isclass)
               if cls.__module__ == syntax.__name__ and issubclass(cls, syntax.LStatement)
               and cls is not syntax.LStatement]
    assert sorted(stmts._RULES, key=str) == sorted(classes + [stmts.SegmentSummary], key=str)
    # every rule takes exec_statement's arguments
    assert all(len(inspect.signature(rule).parameters) == 8
               for rule in stmts._RULES.values())


def formula_array_size(dims):
    return sum(math.prod(dims[: i + 1]) for i in range(len(dims)))


def formula_groups(dims):
    n = len(dims)
    return [formula_array_size(dims[i:]) // dims[i] for i in range(n)]


class TestArrayLayout:
    def test_worked_three_dim_case(self):
        li = array_layout([2, 3, 2])
        assert li.array_size == 20
        assert li.group_sizes == (10, 3, 1)

    def test_one_dimension(self):
        li = array_layout([7])
        assert li.array_size == 7
        assert li.group_sizes == (1,)

    def test_two_by_two(self):
        li = array_layout([2, 2])
        assert li.array_size == 6
        assert li.group_sizes == (3, 1)

    def test_matches_closed_formula(self):
        for dims in ([2], [3, 2], [2, 3, 2], [4, 1, 2], [1, 1, 1], [2, 2, 2, 2]):
            li = array_layout(dims)
            assert li.array_size == formula_array_size(dims)
            assert list(li.group_sizes) == formula_groups(dims)

    def test_last_group_is_one_and_size_identity(self):
        for dims in ([5], [2, 4], [3, 3, 3]):
            li = array_layout(dims)
            assert li.group_sizes[-1] == 1
            assert li.array_size == dims[0] * li.group_sizes[0]


class TestElemOffset:
    def test_worked_offset(self):
        assert elem_offset([0, 1, 1], [10, 3, 1]) == 6

    def test_single_dimension_identity(self):
        for i in range(5):
            assert elem_offset([i], [1]) == i

    def test_two_by_two_case(self):
        assert elem_offset([1, 0], [3, 1]) == 4


THREE_DIM_HEADERS = {0, 1, 4, 7, 10, 11, 14, 17}


def init_three_dim(sigma, env, base=Address(0)):
    t = Tarray(2, Tarray(3, Tarray(2, Tuint())))
    sigma = gm.allocate_at(sigma, base, 20)
    return init_array(200, sigma, base, t, env)


class TestInitArray:
    def test_three_dim_block_order(self, sigma, env):
        # Final structure: group headers interleave with leaf runs
        # exactly as the worked three-dimensional example lays out.
        out = init_three_dim(sigma, env)
        for i in range(20):
            payload = out.blocks[i].payload
            if i in THREE_DIM_HEADERS:
                assert isinstance(payload, ArrayGroup), f"block {i}"
            else:
                assert isinstance(payload, Undef), f"block {i}"
            assert out.blocks[i].occupancy == gm.OCCUPY

    def test_header_metadata(self, sigma, env):
        out = init_three_dim(sigma, env)
        assert out.blocks[0].payload == ArrayGroup(2, 10)
        assert out.blocks[1].payload == ArrayGroup(3, 3)
        assert out.blocks[10].payload == ArrayGroup(2, 10)

    def test_run_outside_memory_absent(self, sigma, env):
        t = Tarray(3, Tuint())
        assert init_array(50, sigma, Address(-1), t, env) is None
        assert init_array(50, sigma, Address(sigma.size - 2), t, env) is None
        assert init_array(50, sigma, Address(sigma.size - 3), t, env).size == sigma.size

    def test_one_dim_all_leaves(self, sigma, env):
        t = Tarray(3, Tuint())
        seeded = gm.allocate_at(sigma, Address(5), 3)
        out = init_array(50, seeded, Address(5), t, env)
        for i in (5, 6, 7):
            assert isinstance(out.blocks[i].payload, Undef)
            assert out.blocks[i].occupancy == gm.OCCUPY

    def test_two_by_two_headers_and_leaves(self, sigma, env):
        t = Tarray(2, Tarray(2, Tuint()))
        seeded = gm.allocate_at(sigma, Address(0), 6)
        out = init_array(50, seeded, Address(0), t, env)
        headers = {i for i in range(6) if isinstance(out.blocks[i].payload, ArrayGroup)}
        assert headers == {0, 3}
        leaves = {i for i in range(6) if isinstance(out.blocks[i].payload, Undef)
                  and out.blocks[i].occupancy == gm.OCCUPY}
        assert leaves == {1, 2, 4, 5}

    def test_budget_exhaustion_absent(self, sigma, env):
        t = Tarray(2, Tarray(3, Tarray(2, Tuint())))
        seeded = gm.allocate_at(sigma, Address(0), 20)
        assert init_array(2, seeded, Address(0), t, env) is None

    def test_every_element_offset_lands_on_a_leaf(self, sigma, env):
        # formula/algorithm agreement for the worked example
        out = init_three_dim(sigma, env)
        groups = formula_groups([2, 3, 2])
        seen = set()
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    off = elem_offset([i, j, k], groups)
                    assert isinstance(out.blocks[off].payload, Undef)
                    seen.add(off)
        assert len(seen) == 12  # every leaf distinct
        assert seen == set(range(20)) - THREE_DIM_HEADERS


class TestInitVar:
    def test_scalar_declaration(self, sigma, env):
        out = init_var(sigma, env, "public", Tuint(), Address(4))
        block = out.blocks[4]
        assert block.occupancy == gm.OCCUPY
        assert isinstance(block.payload, Undef)
        assert block.access == "public"
        assert block.domain == env.domain

    def test_occupied_block_absent(self, sigma, env):
        once = init_var(sigma, env, None, Tuint(), Address(4))
        assert init_var(once, env, None, Tuint(), Address(4)) is None

    def test_array_declaration_runs_tree_init(self, sigma, env):
        t = Tarray(2, Tarray(2, Tuint()))
        out = init_var(sigma, env, "public", t, Address(0), K=100)
        headers = {i for i in range(6) if isinstance(out.blocks[i].payload, ArrayGroup)}
        assert headers == {0, 3}

    def test_mapping_declaration_creates_head(self, sigma, env):
        out = init_var(sigma, env, None, Tmap(Tuint(), Tbool()), Address(9))
        head = out.blocks[9].payload
        assert isinstance(head, MapNode)
        assert head.kv is None and head.next is None


def run(prog, sigma, env, fenv=None, K=200, ctx=None):
    return interpret(K, sigma, env, fenv or env, prog, ctx)


X = Address(0)
Y = Address(1)


def declared(sigma, env):
    out = init_var(sigma, env, "public", Tuint(), X)
    return init_var(out, env, "public", Tuint(), Y)


class TestBasicStatements:
    def test_snil_leaves_state_unchanged(self, sigma, env):
        out = run([Snil()], sigma, env)
        assert out.blocks == sigma.blocks

    def test_assign_read_after_write_matches_direct_write(self, sigma, env):
        seeded = declared(sigma, env)
        out = run([Assign(Evar(X, Tuint()), Econst(Vint(5)))], seeded, env)
        oracle = gm.write(seeded, X,
                          replace(seeded.blocks[X.index], payload=IntPayload(5)),
                          "dir")
        assert out.blocks[X.index].payload == oracle.blocks[X.index].payload

    def test_var_statement_declares(self, sigma, env):
        out = run([Var("private", Evar(X, Tuint()))], sigma, env)
        assert out.blocks[0].occupancy == gm.OCCUPY
        assert out.blocks[0].access == "private"

    def test_var_without_address_fails(self, sigma, env):
        ctx = ExecContext(sigma_init=sigma)
        assert run([Var(None, Evar(None, Tuint()))], sigma, env, ctx=ctx) is None
        assert ctx.diagnostics

    def test_struct_decl_writes_type_block(self, sigma, env):
        out = run([StructDecl(Address(8), (("a", Tuint()),))], sigma, env)
        assert isinstance(out.blocks[8].payload, StructTypeInfo)

    def test_if_false_executes_else_arm(self, sigma, env):
        seeded = declared(sigma, env)
        prog = [If(Econst(Vbool(False)),
                   (Assign(Evar(X, Tuint()), Econst(Vint(1))),),
                   (Assign(Evar(X, Tuint()), Econst(Vint(2))),))]
        out = run(prog, seeded, env)
        assert out.blocks[X.index].payload == IntPayload(2)

    def test_if_false_equals_else_alone_gas_adjusted(self, sigma, env):
        seeded = declared(sigma, env)
        s_then = (Assign(Evar(X, Tuint()), Econst(Vint(1))),)
        s_else = (Assign(Evar(X, Tuint()), Econst(Vint(2))),
                  Assign(Evar(Y, Tuint()), Econst(Vint(3))))
        whole = run([If(Econst(Vbool(False)), s_then, s_else)], seeded,
                    replace(env, gas=50))
        alone = run(list(s_else), seeded, replace(env, gas=49))
        assert whole.blocks == alone.blocks

    def test_throw_restores_snapshot_plus_flag(self, sigma, env, names):
        seeded = declared(sigma, env)
        prog = [Assign(Evar(X, Tuint()), Econst(Vint(9))), Throw(),
                Assign(Evar(Y, Tuint()), Econst(Vint(1)))]
        out = run(prog, seeded, env)
        flag_idx = names["0xthrow"].index
        assert out.blocks[flag_idx].payload == BoolPayload(True)
        for i, (a, b) in enumerate(zip(out.blocks, seeded.blocks)):
            if i != flag_idx:
                assert a == b

    def test_throw_is_canonical_regardless_of_prior_writes(self, sigma, env):
        seeded = declared(sigma, env)
        variant1 = [Assign(Evar(X, Tuint()), Econst(Vint(1))), Throw()]
        variant2 = [Assign(Evar(X, Tuint()), Econst(Vint(7))),
                    Assign(Evar(Y, Tuint()), Econst(Vint(8))), Throw()]
        assert run(variant1, seeded, env).blocks == run(variant2, seeded, env).blocks

    def test_contract_declaration_written(self, sigma, env):
        c = Contract(Address(3), (), (("open", Address(4)),))
        out = run([c], sigma, env)
        info = out.blocks[3].payload
        assert isinstance(info, ContractInfo)
        assert info.members == (("open", Address(4)),)

    def test_contract_inheritance_mismatch_leaves_state(self, sigma, env):
        c = Contract(Address(3), (Address(9),), ())
        ctx = ExecContext(sigma_init=sigma, registry={Address(3): ()})
        out = run([c], sigma, env, ctx=ctx)
        assert out.blocks == sigma.blocks


class TestLoops:
    def test_while_false_skips_body(self, sigma, env):
        seeded = declared(sigma, env)
        prog = [LoopWhile(Econst(Vbool(False)),
                          (Assign(Evar(X, Tuint()), Econst(Vint(1))),))]
        out = run(prog, seeded, env)
        assert isinstance(out.blocks[X.index].payload, Undef)

    def test_counted_loop_unrolling_equivalence(self, sigma, env):
        seeded = declared(sigma, env)
        seeded = run([Assign(Evar(X, Tuint()), Econst(Vint(0)))], seeded, env)
        n = 4
        body = (Assign(Evar(X, Tuint()),
                       Ebop("+", Evar(X, Tuint()), Econst(Vint(1)))),)
        loop = [LoopWhile(Ebop("<", Evar(X, Tuint()), Econst(Vint(n))), body)]
        unrolled = list(body) * n
        out_loop = run(loop, seeded, env)
        out_unrolled = run(unrolled, seeded, env)
        assert out_loop.blocks == out_unrolled.blocks
        assert out_loop.blocks[X.index].payload == IntPayload(n)

    def test_for_loop_reruns_carried_init_each_iteration(self, sigma, env):
        # When the loop statement itself carries an init step, that step
        # re-executes on every iteration (the frontend desugars C-style
        # loops by hoisting the init out instead).
        seeded = declared(sigma, env)
        seeded = run([Assign(Evar(X, Tuint()), Econst(Vint(0))),
                      Assign(Evar(Y, Tuint()), Econst(Vint(0)))], seeded, env)
        loop = [LoopFor(Ebop("<", Evar(X, Tuint()), Econst(Vint(2))),
                        Assign(Evar(Y, Tuint()),
                               Ebop("+", Evar(Y, Tuint()), Econst(Vint(10)))),
                        (Assign(Evar(X, Tuint()),
                                Ebop("+", Evar(X, Tuint()), Econst(Vint(1)))),),
                        None)]
        out = run(loop, seeded, env)
        assert out.blocks[X.index].payload == IntPayload(2)
        assert out.blocks[Y.index].payload == IntPayload(20)

    def test_for_loop_runs_post_each_iteration(self, sigma, env):
        seeded = declared(sigma, env)
        seeded = run([Assign(Evar(X, Tuint()), Econst(Vint(0))),
                      Assign(Evar(Y, Tuint()), Econst(Vint(0)))], seeded, env)
        loop = [LoopFor(Ebop("<", Evar(X, Tuint()), Econst(Vint(3))),
                        None,
                        (Assign(Evar(Y, Tuint()),
                                Ebop("+", Evar(Y, Tuint()), Econst(Vint(2)))),),
                        Assign(Evar(X, Tuint()),
                               Ebop("+", Evar(X, Tuint()), Econst(Vint(1)))))]
        out = run(loop, seeded, env)
        assert out.blocks[X.index].payload == IntPayload(3)
        assert out.blocks[Y.index].payload == IntPayload(6)

    def test_gas_bounds_infinite_loop(self, sigma, names):
        env = initial_env(25, names["0xglobal"])
        out = run([LoopWhile(Econst(Vbool(True)), (Snil(),))], sigma, env)
        assert out.blocks == sigma.blocks  # state untouched, run halted


FUN = Address(10)
LAM = Address(11)
PAR = Address(12)


def fun_decl(body, returns=(Tuint(),), params=(), modifiers=()):
    return Fun(FUN, tuple(modifiers), tuple(params), tuple(returns),
               tuple(body), LAM)


class TestFunctions:
    def test_declaration_stores_body_with_funstop(self, sigma, env):
        out = run([fun_decl([Snil()])], sigma, env)
        info = out.blocks[FUN.index].payload
        assert isinstance(info, FunctionInfo)
        assert isinstance(info.body[-1], FunStop)
        assert out.blocks[LAM.index].occupancy == gm.OCCUPY

    def test_call_unfolds_body_and_binds_parameters(self, sigma, env):
        seeded = declared(sigma, env)
        f = fun_decl([Assign(Evar(X, Tuint()), Evar(PAR, Tuint()))],
                     params=(Evar(PAR, Tuint()),))
        prog = [f, FunCall(Efun(FUN, Tfid(FUN)), (Econst(Vint(77)),))]
        out = run(prog, seeded, env)
        assert out.blocks[X.index].payload == IntPayload(77)
        assert out.blocks[PAR.index].payload == IntPayload(77)

    def test_call_arity_mismatch_fails(self, sigma, env):
        f = fun_decl([Snil()], params=(Evar(PAR, Tuint()),))
        prog = [f, FunCall(Efun(FUN, Tfid(FUN)), ())]
        assert run(prog, sigma, env) is None

    def test_call_to_free_block_fails(self, sigma, env):
        assert run([FunCall(Efun(FUN, Tfid(FUN)), ())], sigma, env) is None

    def test_return_writes_slot_and_halts_rest(self, sigma, env):
        seeded = declared(sigma, env)
        f = fun_decl([Return(Econst(Vint(5))),
                      Assign(Evar(X, Tuint()), Econst(Vint(1)))])
        prog = [f, FunCall(Efun(FUN, Tfid(FUN)), ())]
        out = run(prog, seeded, env)
        assert out.blocks[LAM.index].payload == IntPayload(5)
        assert isinstance(out.blocks[X.index].payload, Undef)  # never ran

    def test_returns_writes_consecutive_slots(self, sigma, env):
        f = Fun(FUN, (), (), (Tuint(), Tuint()),
                (Returns((Econst(Vint(1)), Econst(Vint(2)))),), LAM)
        prog = [f, FunCall(Efun(FUN, Tfid(FUN)), ())]
        out = run(prog, sigma, env)
        assert out.blocks[LAM.index].payload == IntPayload(1)
        assert out.blocks[LAM.index + 1].payload == IntPayload(2)

    def test_funstop_restores_environment_for_continuation(self, sigma, env):
        seeded = declared(sigma, env)
        f = fun_decl([Snil()])
        prog = [f, FunCall(Efun(FUN, Tfid(FUN)), ()),
                Assign(Evar(X, Tuint()), Econst(Vint(3)))]
        out = run(prog, seeded, env)
        assert out.blocks[X.index].payload == IntPayload(3)


MOD = Address(20)
MOD_LAM = Address(21)


def modifier_decl(body):
    return Modifier(MOD, (), tuple(body), MOD_LAM)


def flag_assign(names, value=True):
    return Assign(Evar(names["0xmodifier"], Tbool()), Econst(Vbool(value)))


class TestModifiers:
    def test_pure_check_modifier_allows_execution(self, sigma, env, names):
        seeded = declared(sigma, env)
        prog = [modifier_decl([flag_assign(names)]),
                fun_decl([Assign(Evar(X, Tuint()), Econst(Vint(1)))],
                         modifiers=(FunCall(Efun(MOD, Tfid(MOD)), ()),)),
                FunCall(Efun(FUN, Tfid(FUN)), ())]
        out = run(prog, seeded, env)
        assert out is not None
        assert out.blocks[X.index].payload == IntPayload(1)

    def test_memory_touching_modifier_discards_execution(self, sigma, env, names):
        seeded = declared(sigma, env)
        prog = [modifier_decl([flag_assign(names),
                               Assign(Evar(Y, Tuint()), Econst(Vint(9)))]),
                fun_decl([Assign(Evar(X, Tuint()), Econst(Vint(1)))],
                         modifiers=(FunCall(Efun(MOD, Tfid(MOD)), ()),)),
                FunCall(Efun(FUN, Tfid(FUN)), ())]
        assert run(prog, seeded, env) is None

    def test_false_flag_skips_function_storage(self, sigma, env, names):
        seeded = declared(sigma, env)
        prog = [modifier_decl([flag_assign(names, False)]),
                fun_decl([Assign(Evar(X, Tuint()), Econst(Vint(1)))],
                         modifiers=(FunCall(Efun(MOD, Tfid(MOD)), ()),))]
        out = run(prog, seeded, env)
        # declaration skipped, nothing stored at the function block
        assert not isinstance(out.blocks[FUN.index].payload, FunctionInfo)
        assert isinstance(out.blocks[X.index].payload, Undef)

    def test_isolation_check_sees_every_other_block(self, sigma, env, names):
        # sanity for the comparison itself: flag write alone passes
        from minisol.stmts import _modif_check
        flag_idx = names["0xmodifier"].index
        after = gm.write(sigma, names["0xmodifier"],
                         replace(sigma.blocks[flag_idx], payload=BoolPayload(True)),
                         "dir")
        assert _modif_check(sigma, after, flag_idx) is True
        touched = gm.write(after, Address(0),
                           MemoryValue(IntPayload(1), domain=env.domain), "dir")
        assert _modif_check(sigma, touched, flag_idx) is None
        assert _modif_check(sigma, sigma, flag_idx) is False

    @pytest.mark.parametrize("extra, expected", [
        ("flag", True),        # the flag alone is raised
        (None, False),         # nothing changed
        (3, None),             # a change in the first, full leaf
        (80, None),            # a change in the partial last leaf
        ("flag+80", None),     # the flag and another block of its leaf
    ])
    def test_isolation_check_ignores_leaf_sharing(self, sigma, names, extra, expected):
        # the answer is the same when either state is rebuilt with no leaf shared
        from minisol.stmts import _modif_check
        flag = names["0xmodifier"]
        after = sigma
        if extra in ("flag", "flag+80"):
            after = gm.write(after, flag, replace(sigma.blocks[flag.index],
                                                  payload=BoolPayload(True)), "dir")
        if extra in (3, 80, "flag+80"):
            i = 80 if extra == "flag+80" else extra
            after = gm.write(after, Address(i), MemoryValue(IntPayload(1)), "dir")

        def unshared(s):
            return MemoryState(tuple(s.blocks), s.symbol_table, s.alloc_floor)

        for b, a in [(sigma, after), (unshared(sigma), after), (sigma, unshared(after)),
                     (unshared(sigma), unshared(after))]:
            assert _modif_check(b, a, flag.index) is expected


class TestMappingStatements:
    def test_insert_then_read_round_trip(self, sigma, env):
        m = Address(5)
        seeded = init_var(sigma, env, None, Tmap(Tuint(), Tuint()), m)
        lhs = Econst(Vmap(m, (Econst(Vint(10)),), Tuint(), Tuint(), None))
        out = run([Assign(lhs, Econst(Vint(42)))], seeded, env)
        assert out is not None
        from minisol.exprs import eval_rvalue
        got = eval_rvalue(20, lhs, out, env)
        assert got.payload == IntPayload(42)

    def test_update_existing_key_grafts_value(self, sigma, env):
        m = Address(5)
        seeded = init_var(sigma, env, None, Tmap(Tuint(), Tuint()), m)
        lhs = Econst(Vmap(m, (Econst(Vint(10)),), Tuint(), Tuint(), None))
        out = run([Assign(lhs, Econst(Vint(1))), Assign(lhs, Econst(Vint(2)))],
                  seeded, env)
        from minisol.exprs import eval_rvalue
        assert eval_rvalue(20, lhs, out, env).payload == IntPayload(2)

    def test_two_keys_round_trip_nested(self, sigma, env):
        m = Address(5)
        t = Tmap(Tuint(), Tmap(Tuint(), Tuint()))
        seeded = init_var(sigma, env, None, t, m)
        lhs = Econst(Vmap(m, (Econst(Vint(1)), Econst(Vint(2))),
                          Tuint(), Tmap(Tuint(), Tuint()), None))
        out = run([Assign(lhs, Econst(Vint(99)))], seeded, env)
        assert out is not None
        from minisol.exprs import eval_rvalue
        assert eval_rvalue(30, lhs, out, env).payload == IntPayload(99)


class TestGasAccounting:
    def test_each_statement_costs_one(self, sigma, names):
        # g statements of skip leave exactly gas - g on a big budget;
        # observable through the halt boundary instead: g skips need
        # gas >= g to leave the state unchanged and complete.
        for g in (1, 5, 9):
            env = initial_env(g, names["0xglobal"])
            prog = [Snil()] * g
            out = run(prog, sigma, env)
            assert out.blocks == sigma.blocks

    def test_termination_within_gas_limit(self, sigma, names):
        env = initial_env(50, names["0xglobal"])
        prog = [LoopWhile(Econst(Vbool(True)), (Snil(),))]
        out = run(prog, sigma, env)  # would diverge without the bound
        assert out is not None


class TestSymbolicMappingKeys:
    def test_insert_under_symbolic_key_is_absent(self, sigma, env):
        from minisol.symbolic import SymVar
        m, k = Address(5), Address(6)
        seeded = init_var(sigma, env, None, Tmap(Tuint(), Tuint()), m)
        seeded = init_var(seeded, env, None, Tuint(), k)
        seeded = gm.write(seeded, k,
                          replace(seeded.blocks[k.index],
                                  payload=IntPayload(SymVar("k"))), "dir")
        lhs = Econst(Vmap(m, (Evar(k, Tuint()),), Tuint(), Tuint(), None))
        assert run([Assign(lhs, Econst(Vint(1)))], seeded, env) is None

    def test_symbolic_value_under_concrete_key_is_stored(self, sigma, env):
        from minisol.symbolic import SymVar
        m, v = Address(5), Address(6)
        seeded = init_var(sigma, env, None, Tmap(Tuint(), Tuint()), m)
        seeded = init_var(seeded, env, None, Tuint(), v)
        seeded = gm.write(seeded, v,
                          replace(seeded.blocks[v.index],
                                  payload=IntPayload(SymVar("x"))), "dir")
        lhs = Econst(Vmap(m, (Econst(Vint(3)),), Tuint(), Tuint(), None))
        out = run([Assign(lhs, Evar(v, Tuint()))], seeded, env)
        assert out is not None
        from minisol.exprs import eval_rvalue
        got = eval_rvalue(30, lhs, out, env)
        assert got.payload == IntPayload(SymVar("x"))
