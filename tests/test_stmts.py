"""Statement layer: the environment check, array math, declarations,
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
from minisol.stdlib import fresh_memory
from minisol.stmts import BUDGET, ERROR, FINISHED, SYMBOLIC, drive, init_array, init_var
from minisol.symbolic import SymVar
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
    LoopWhile,
    ModifierGuard,
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
    Varray,
    Vbool,
    Vint,
    Vmap,
    divides_by_nonliteral,
    program_from_data,
    program_to_data,
)
from minisol.values import Env, initial_env


class TestEnvCheck:
    @pytest.mark.parametrize("gas, expected", [(0, (BUDGET, 0)), (5, (FINISHED, 4))],
                             ids=["0-budget", "5-finished"])
    def test_drive_stops_on_budget_exactly_when_the_check_fails(self, sigma, names, gas,
                                                                 expected):
        # the check is the gas: spent gas stops, any other gas dispatches
        env = Env(gas, names["0xglobal"])
        run = drive(10, sigma, env, None, (Snil(),))
        assert (run.stop, run.env.gas) == expected


def test_every_statement_class_has_one_rule(sigma):
    import inspect
    from minisol import stmts, syntax
    classes = [cls for _, cls in inspect.getmembers(syntax, inspect.isclass)
               if cls.__module__ == syntax.__name__ and issubclass(cls, syntax.LStatement)
               and cls is not syntax.LStatement]
    assert sorted(stmts._RULES, key=str) == sorted(classes, key=str)
    # every compiler takes the node, and every rule it builds exec_statement's
    # arguments but the node: the rest are node data, as defaults
    assert all(len(inspect.signature(compiler).parameters) == 1
               for compiler in stmts._RULES.values())
    x, f, cond = Evar(Address(7), Tuint()), Efun(Address(20), Tuint()), Econst(Vbool(True))
    nodes = [Snil(), Throw(), FunStop(), FunStop(Address(3)), Contract(Address(1)),
             Var(None, x), Var(None, Evar(None, Tuint())), StructDecl(Address(4)),
             FunCall(f), FunCall(Efun(None, Tuint())), FunCall(x), If(cond), LoopWhile(cond),
             Fun(Address(20)), Assign(x, cond), Assign(Evar(None, Tuint()), cond),
             Assign(Econst(Vmap(Address(5), (cond,), Tbool(), Tuint())), cond),
             Returns((x,)), ModifierGuard(sigma, FunCall(f)), ModifierGuard(None, FunCall(f))]
    assert {type(n) for n in nodes} == set(classes)
    for node in nodes:
        rule = stmts._RULES[type(node)](node)
        required = [p for p in inspect.signature(rule).parameters.values()
                    if p.default is p.empty]
        assert [p.name.lstrip("_") for p in required] == ["K", "sigma", "env", "rest"], node


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

    def test_array_declaration_writes_its_run_once(self, env, monkeypatch):
        # The blocks of allocating the run and then initializing it, without
        # first marking each block occupied only for init_array to overwrite it.
        t, base, sigma = Tarray(1000, Tuint()), Address(0), fresh_memory(2000)
        expected = init_array(2002, gm.allocate_at(sigma, base, 1000), base, t, env)

        def marked(*_args):
            raise AssertionError("an array declaration marked its blocks occupied")
        monkeypatch.setattr(gm, "_mark_occupied", marked)
        assert init_var(sigma, env, "public", t, base, K=2002).blocks == expected.blocks
        # A declaration over an occupied block inside the run still fails.
        occupied = init_var(sigma, env, None, Tuint(), Address(500))
        assert init_var(occupied, env, "public", t, base, K=2002) is None

    def test_mapping_declaration_creates_head(self, sigma, env):
        out = init_var(sigma, env, None, Tmap(Tuint(), Tbool()), Address(9))
        head = out.blocks[9].payload
        assert isinstance(head, MapNode)
        assert head.kv is None and head.next is None


def run(prog, sigma, env, K=200):
    return interpret(K, sigma, env, prog)


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

    @pytest.mark.parametrize("src, dst", [(1057, 2500), (2500, 33), (31, 1024), (2989, 0)])
    def test_assign_between_blocks_in_any_mid_and_leaf(self, env, src, dst):
        # 3000 blocks are three mids; the variable read and the target read
        # each find their mid, leaf and slot
        sigma = fresh_memory(3000)
        for i in (src, dst):
            sigma = init_var(sigma, env, "public", Tuint(), Address(i))
        sigma = gm.write(sigma, Address(src), replace(sigma.blocks[src], payload=IntPayload(41)),
                         "dir")
        out = run([Assign(Evar(Address(dst), Tuint()),
                          Ebop("+", Evar(Address(src), Tuint()), Econst(Vint(1))))], sigma, env)
        assert out.blocks[dst].payload == IntPayload(42)
        assert list(out.blocks.diff(sigma.blocks)) == [dst]

    def test_var_statement_declares(self, sigma, env):
        out = run([Var("private", Evar(X, Tuint()))], sigma, env)
        assert out.blocks[0].occupancy == gm.OCCUPY
        assert out.blocks[0].access == "private"

    def test_var_without_address_fails(self, sigma, env):
        r = drive(200, sigma, env, sigma, [Var(None, Evar(None, Tuint()))])
        assert r.final() is None
        assert r.reason

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


@pytest.mark.parametrize("cond", [Econst(Vint(1)), Evar(None, Tbool())], ids=["int", "absent"])
def test_condition_without_a_bool_stops_drive_with_error(sigma, env, cond):
    for head, what in ((If(cond, (Throw(),)), "branch"), (LoopWhile(cond, (Throw(),)), "loop")):
        r = drive(10, sigma, env, sigma, (head, Snil()))
        assert r.stop == ERROR
        assert r.error == f"{what} condition failed to evaluate"
        assert r.sigma is sigma and r.remaining == (head, Snil())


@pytest.mark.parametrize("failing, error", [
    (Var(None, Evar(None, Tuint())), "declaration without an address"),
    (Assign(Evar(None, Tuint()), Econst(Vint(1))), "assignment target has no address"),
    (FunCall(Efun(Address(10), Tfid(Address(10))), ()), "no function stored at @10"),
    (If(Econst(Vint(1)), (), ()), "branch condition failed to evaluate"),
], ids=["var", "assign", "call", "if"])
def test_a_failing_dispatch_leaves_the_run_before_it(sigma, env, failing, error):
    # Why a failing rule returns only its message: drive stops with the state
    # and environment of the dispatch before, the failing one's gas unspent,
    # and the failing statement still at the head.
    seeded, first = declared(sigma, env), Assign(Evar(X, Tuint()), Econst(Vint(5)))
    before = drive(200, seeded, env, None, (first,))
    r = drive(200, seeded, env, None, (first, failing, Snil()))
    assert (r.stop, r.error) == (ERROR, error)
    assert (r.sigma, r.env, r.remaining) == (before.sigma, before.env, (failing, Snil()))
    assert r.env.gas == env.gas - 1


def test_a_failing_dispatch_that_divides_by_a_symbol_fails_without_a_split(sigma, env):
    # The call's argument divides by a symbol, but the call fails under every
    # model: its message wins, and drive stops on ERROR with nothing to fork.
    seeded = declared(sigma, env)
    seeded = gm.write(seeded, X, replace(seeded.blocks[X.index],
                                         payload=IntPayload(SymVar("d"))), "dir")
    call = FunCall(Efun(Address(10), Tfid(Address(10))),
                   (Ebop("/", Econst(Vint(10)), Evar(X, Tuint())),))
    stop = drive(200, seeded, env, None, (call,))
    assert (stop.stop, stop.error, stop.step) == (ERROR, "no function stored at @10", None)


@pytest.mark.parametrize("kind", ["branch", "division"])
def test_a_symbolic_stop_holds_the_state_before_the_dispatch(sigma, env, kind):
    # As after ERROR, the stopping statement is still at the head with its
    # gas unspent; ``step`` is what its dispatch made, one unit of gas spent.
    seeded = declared(sigma, env)
    seeded = gm.write(seeded, X, replace(seeded.blocks[X.index],
                                         payload=IntPayload(SymVar("d"))), "dir")
    then, orelse = (Assign(Evar(Y, Tuint()), Econst(Vint(1))),), (Throw(),)
    if kind == "branch":
        head = If(Ebop("<", Evar(X, Tuint()), Econst(Vint(3))), then, orelse)
    else:
        head = Assign(Evar(Y, Tuint()), Ebop("/", Econst(Vint(10)), Evar(X, Tuint())))
    prog = (head, Snil())
    stop = drive(200, seeded, env, None, prog)
    assert (stop.stop, stop.remaining, stop.error) == (SYMBOLIC, prog, None)
    assert stop.sigma is seeded and stop.env is env
    step = stop.step
    assert step.env.gas == env.gas - 1
    split, = step.splits
    if kind == "branch":
        assert step.sigma is seeded
        assert ([str(t) for t in split.tests], step.remaining, split.otherwise,
                split.values) == (["(d < 3)"], (*then, Snil()), (*orelse, Snil()), ())
    else:
        assert ([str(t) for t in split.tests], step.remaining, split.otherwise) == (
            ["(d != 0)"], (Snil(),), None)
        assert [(what, str(tree)) for what, tree in split.values] == [
            ("assignment right side", "(10 / d)")]
        assert str(step.sigma.blocks[Y.index].payload.value) == "(10 / d)"


class TestScalarStores:
    """A scalar assignment is a validated write: the target must be in range
    and occupied, public or in the writer's domain, and it keeps its
    declared domain and access."""

    OWNER = Address(5)

    def owned(self, sigma, env, access):
        return init_var(sigma, replace(env, domain=self.OWNER), access, Tuint(), X)

    def test_assign_to_another_domains_private_block_fails(self, sigma, env):
        prog = [Assign(Evar(X, Tuint()), Econst(Vint(1)))]
        r = drive(200, self.owned(sigma, env, gm.PRIVATE), env, sigma, prog)
        assert r.final() is None
        assert r.reason == "validated write to @0 failed"

    def test_assign_from_another_domain_keeps_the_blocks_domain_and_access(self, sigma, env):
        out = run([Assign(Evar(X, Tuint()), Econst(Vint(1)))],
                  self.owned(sigma, env, gm.PUBLIC), env)
        assert out.blocks[X.index] == MemoryValue(IntPayload(1), self.OWNER, gm.PUBLIC,
                                                  gm.OCCUPY)

    @pytest.mark.parametrize("index", [-1, 100])
    def test_assign_out_of_range_fails(self, sigma, env, index):
        r = drive(200, sigma, env, sigma, [Assign(Evar(Address(index), Tuint()), Econst(Vint(1)))])
        assert r.final() is None
        assert r.reason == f"validated write to @{index} failed"


class TestRulesHoldNoState:
    """A statement's rule is compiled once and shared by every state, domain
    and path that dispatches the node, so what it returns must be what a
    freshly built node that has never been dispatched returns."""

    N = Address(30)
    OWNER, FOREIGN = Address(40), Address(41)

    def nodes(self):
        n = Evar(self.N, Tuint())
        below = Ebop("<", n, Econst(Vint(5)))
        return {
            "assign": Assign(n, Ebop("+", n, Econst(Vint(1)))),  # n = n + 1
            "if": If(below, (Assign(n, Econst(Vint(0))),), (Throw(),)),
            "while": LoopWhile(below, (Assign(n, Ebop("+", n, Econst(Vint(1)))),)),
        }

    def cases(self, sigma, env):
        def put(value, domain=env.domain, access=gm.PUBLIC):
            return gm.write(sigma, self.N, MemoryValue(IntPayload(value), domain, access),
                            "dir")
        private = put(2, self.OWNER, gm.PRIVATE)
        return {
            "concrete": (20, put(2), env),
            "another state": (20, put(6), env),
            "owner on a private block": (20, private, Env(env.gas, self.OWNER)),
            "foreign domain on it": (20, private, Env(env.gas, self.FOREIGN)),
            "symbolic operand": (20, put(SymVar("x")), env),
            "K = 1": (1, put(2), env),
            "out-of-range target": (20, fresh_memory(20), env),
        }

    def test_one_node_gives_what_a_fresh_node_gives(self, sigma, env):
        from minisol.stmts import StepResult, exec_statement
        shared, rest = self.nodes(), (Snil(),)
        got = {}
        for case, (K, state, e) in self.cases(sigma, env).items():
            fresh = self.nodes()
            for kind, node in shared.items():
                assert fresh[kind].rule is None
                got[case, kind] = exec_statement(K, state, e, node, rest)
                assert got[case, kind] == exec_statement(K, state, e, fresh[kind], rest), \
                    (case, kind)
        assert got["concrete", "assign"][0].blocks[30].payload == IntPayload(3)
        assert got["concrete", "if"][2] == (*shared["if"].then, Snil())
        assert got["another state", "if"][2] == (Throw(), Snil())
        assert got["concrete", "while"][2] == (*shared["while"].body, shared["while"], Snil())
        assert got["another state", "while"][2] == (Snil(),)
        assert got["owner on a private block", "assign"][0].blocks[30] == MemoryValue(
            IntPayload(3), self.OWNER, gm.PRIVATE)
        for kind, what in (("assign", "assignment right side"), ("if", "branch condition"),
                           ("while", "loop condition")):
            for case in ("foreign domain on it", "K = 1", "out-of-range target"):
                assert got[case, kind] == f"{what} failed to evaluate", (case, kind)
        assert str(got["symbolic operand", "assign"][0].blocks[30].payload.value) == "(x + 1)"
        for kind in ("if", "while"):
            step = got["symbolic operand", kind]
            assert type(step) is StepResult and len(step.splits) == 1
        for node in shared.values():
            assert node.rule.__closure__ is None  # no cells: node data are default arguments
            assert not any(isinstance(d, (MemoryState, Env))
                           for d in node.rule.__defaults__ or ())


_ARR = Tarray(3, Tuint())


def _foreign_private(sigma, env, ltype, index):
    """``sigma`` with ``ltype`` declared at X by another domain and block
    ``index`` of it private to that domain."""
    owner = Address(5)
    out = init_var(sigma, replace(env, domain=owner), gm.PUBLIC, ltype, X, K=10)
    block = replace(out.blocks[index], domain=owner, access=gm.PRIVATE)
    return gm.write(out, Address(index), block, "dir")


@pytest.mark.parametrize("seed, head, error", [
    (declared, Assign(Evar(X, Tuint()), Evar(None, Tuint())),
     "assignment right side failed to evaluate"),
    (declared, Assign(Econst(Varray(_ARR, (Econst(Vint(0)),), X)), Evar(None, Tuint())),
     "assignment right side failed to evaluate"),
    (declared, Assign(Econst(Vmap(Y, (Econst(Vint(0)),), Tuint(), Tuint())),
                      Evar(None, Tuint())),
     "assignment right side failed to evaluate"),
    (declared, Assign(Evar(None, Tuint()), Econst(Vint(1))), "assignment target has no address"),
    (declared, Assign(Ebop("+", Evar(X, Tuint()), Econst(Vint(1))), Econst(Vint(1))),
     "assignment target has no address"),
    (lambda s, e: init_var(s, e, gm.PUBLIC, _ARR, X, K=10),
     Assign(Econst(Varray(_ARR, (Econst(Vint(3)),), X)), Econst(Vint(1))),
     "assignment target has no address"),
    (lambda s, e: init_var(s, e, gm.PUBLIC, Tmap(Tuint(), Tuint()), X),
     Assign(Evar(X, Tmap(Tuint(), Tuint())), Econst(Vint(1))),
     "cannot assign into a mapping head"),
    (lambda s, e: _foreign_private(s, e, Tuint(), 0),
     Assign(Evar(X, Tuint()), Econst(Vint(1))), "validated write to @0 failed"),
    (lambda s, e: _foreign_private(s, e, _ARR, 2),
     Assign(Econst(Varray(_ARR, (Econst(Vint(2)),), X)), Econst(Vint(1))),
     "validated write to @2 failed"),
    (declared, If(Evar(None, Tbool()), (Throw(),), ()), "branch condition failed to evaluate"),
    (declared, LoopWhile(Econst(Vint(1)), (Throw(),)), "loop condition failed to evaluate"),
], ids=["rhs-scalar", "rhs-element", "rhs-entry", "no-address", "operator-target",
        "element-overflow", "mapping-head", "foreign-private", "foreign-private-element",
        "branch", "loop"])
def test_assign_and_branch_failures_keep_their_messages(sigma, env, seed, head, error):
    # Each message, on each path of the rule that gives it; an out-of-range
    # target is in TestScalarStores.
    r = drive(200, seed(sigma, env), env, None, (head, Snil()))
    assert (r.stop, r.error, r.remaining) == (ERROR, error, (head, Snil()))


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
        # An init step carried inside the loop, at the head of the while
        # body, re-executes on every iteration (the binder lowers C-style
        # loops by hoisting the init out instead).
        seeded = declared(sigma, env)
        seeded = run([Assign(Evar(X, Tuint()), Econst(Vint(0))),
                      Assign(Evar(Y, Tuint()), Econst(Vint(0)))], seeded, env)
        loop = [LoopWhile(Ebop("<", Evar(X, Tuint()), Econst(Vint(2))),
                          (Assign(Evar(Y, Tuint()),
                                  Ebop("+", Evar(Y, Tuint()), Econst(Vint(10)))),
                           Assign(Evar(X, Tuint()),
                                  Ebop("+", Evar(X, Tuint()), Econst(Vint(1))))))]
        out = run(loop, seeded, env)
        assert out.blocks[X.index].payload == IntPayload(2)
        assert out.blocks[Y.index].payload == IntPayload(20)

    def test_for_loop_runs_post_each_iteration(self, sigma, env):
        seeded = declared(sigma, env)
        seeded = run([Assign(Evar(X, Tuint()), Econst(Vint(0))),
                      Assign(Evar(Y, Tuint()), Econst(Vint(0)))], seeded, env)
        # the lowered form of a for loop: the post step ends the while body
        loop = [LoopWhile(Ebop("<", Evar(X, Tuint()), Econst(Vint(3))),
                          (Assign(Evar(Y, Tuint()),
                                  Ebop("+", Evar(Y, Tuint()), Econst(Vint(2)))),
                           Assign(Evar(X, Tuint()),
                                  Ebop("+", Evar(X, Tuint()), Econst(Vint(1))))))]
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


INNER = Address(13)
INNER_LAM = Address(14)


def inner_decl(body):
    return Fun(INNER, (), (), (Tuint(),), tuple(body), INNER_LAM)


def call(fun):
    return FunCall(Efun(fun, Tfid(fun)), ())


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
        f = fun_decl([Returns((Econst(Vint(5)),)),
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


    def test_return_in_a_nested_call_ends_only_the_callee(self, sigma, env):
        seeded = declared(sigma, env)
        prog = [inner_decl([Returns((Econst(Vint(7)),))]),
                fun_decl([call(INNER), Assign(Evar(X, Tuint()), Econst(Vint(1)))]),
                call(FUN)]
        out = run(prog, seeded, env)
        assert out.blocks[INNER_LAM.index].payload == IntPayload(7)
        assert out.blocks[X.index].payload == IntPayload(1)  # the caller went on

    def test_return_after_a_nested_call_fills_the_callers_slot(self, sigma, env):
        seeded = declared(sigma, env)
        prog = [inner_decl([Assign(Evar(Y, Tuint()), Econst(Vint(1)))]),
                fun_decl([call(INNER), Returns((Econst(Vint(3)),))]),
                call(FUN)]
        done = drive(200, seeded, env, seeded, prog)
        assert done.stop == FINISHED
        assert done.sigma.blocks[Y.index].payload == IntPayload(1)
        assert done.sigma.blocks[LAM.index].payload == IntPayload(3)
        assert done.env.domain == env.domain

    def test_return_inside_a_loop_ends_the_frame(self, sigma, env):
        seeded = declared(sigma, env)
        prog = [inner_decl([LoopWhile(Econst(Vbool(True)), (Returns((Econst(Vint(4)),)),))]),
                fun_decl([call(INNER), Assign(Evar(X, Tuint()), Econst(Vint(2)))]),
                call(FUN)]
        out = run(prog, seeded, env)
        assert out.blocks[INNER_LAM.index].payload == IntPayload(4)
        assert out.blocks[X.index].payload == IntPayload(2)


MOD = Address(20)
MOD_LAM = Address(21)


def modifier_decl(body):
    return Fun(MOD, (), (), (Tbool(),), tuple(body), MOD_LAM)


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

    def test_false_flag_stores_the_function_and_its_call_throws(self, sigma, env, names):
        seeded = declared(sigma, env)
        prog = [modifier_decl([flag_assign(names, False)]),
                fun_decl([Assign(Evar(X, Tuint()), Econst(Vint(1)))],
                         modifiers=(FunCall(Efun(MOD, Tfid(MOD)), ()),))]
        stored = run(prog, seeded, env)
        assert isinstance(stored.blocks[FUN.index].payload, FunctionInfo)
        out = run([call(FUN)], stored, env)
        assert out.blocks[names["0xthrow"].index].payload == BoolPayload(True)
        assert isinstance(out.blocks[X.index].payload, Undef)

    def test_each_guard_lowers_the_flag_for_the_next_modifier(self, sigma, env, names):
        # the first modifier raises the flag, the second raises nothing: the
        # first guard put the flag down again, so the second guard throws
        seeded = declared(sigma, env)
        prog = [modifier_decl([flag_assign(names)]),
                Fun(INNER, (), (), (Tbool(),), (Snil(),), INNER_LAM),
                fun_decl([Assign(Evar(X, Tuint()), Econst(Vint(1)))],
                         modifiers=(call(MOD), call(INNER))),
                call(FUN)]
        out = run(prog, seeded, env)
        assert out.blocks[names["0xthrow"].index].payload == BoolPayload(True)
        assert isinstance(out.blocks[X.index].payload, Undef)

    def test_modifiers_run_on_each_call_and_spend_its_gas(self, sigma, env, names):
        seeded = declared(sigma, env)
        decls = [modifier_decl([flag_assign(names)]),
                 fun_decl([Assign(Evar(X, Tuint()), Econst(Vint(1)))],
                          modifiers=(call(MOD),))]
        stored = run(decls, seeded, env)
        # the call, the modifier call, its flag write and FunStop, the
        # guard, the assignment and the function's FunStop
        done = drive(100, stored, env, stored, (call(FUN),))
        assert done.stop == FINISHED
        assert env.gas - done.env.gas == 7
        assert done.sigma.blocks[X.index].payload == IntPayload(1)
        assert done.sigma.blocks[names["0xmodifier"].index].payload == BoolPayload(False)

    def test_decoded_guard_without_a_state_is_a_named_error(self, sigma, env):
        prog = program_from_data([{"kind": "modifierguard"}])
        done = drive(100, sigma, env, sigma, prog)
        assert (done.stop, done.error) == (ERROR, "modifier guard without a saved state")

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
            return MemoryState(tuple(s.blocks), s.alloc_floor)

        for b, a in [(sigma, after), (unshared(sigma), after), (sigma, unshared(after)),
                     (unshared(sigma), unshared(after))]:
            assert _modif_check(b, a, flag.index) is expected


class TestMappingStatements:
    def test_insert_then_read_round_trip(self, sigma, env):
        m = Address(5)
        seeded = init_var(sigma, env, None, Tmap(Tuint(), Tuint()), m)
        lhs = Econst(Vmap(m, (Econst(Vint(10)),), Tuint(), Tuint()))
        out = run([Assign(lhs, Econst(Vint(42)))], seeded, env)
        assert out is not None
        from minisol.exprs import eval_rvalue
        got = eval_rvalue(20, lhs, out, env)
        assert got.payload == IntPayload(42)

    def test_update_existing_key_grafts_value(self, sigma, env):
        m = Address(5)
        seeded = init_var(sigma, env, None, Tmap(Tuint(), Tuint()), m)
        lhs = Econst(Vmap(m, (Econst(Vint(10)),), Tuint(), Tuint()))
        out = run([Assign(lhs, Econst(Vint(1))), Assign(lhs, Econst(Vint(2)))],
                  seeded, env)
        from minisol.exprs import eval_rvalue
        assert eval_rvalue(20, lhs, out, env).payload == IntPayload(2)

    def test_two_keys_round_trip_nested(self, sigma, env):
        m = Address(5)
        t = Tmap(Tuint(), Tmap(Tuint(), Tuint()))
        seeded = init_var(sigma, env, None, t, m)
        lhs = Econst(Vmap(m, (Econst(Vint(1)), Econst(Vint(2))),
                          Tuint(), Tmap(Tuint(), Tuint())))
        out = run([Assign(lhs, Econst(Vint(99)))], seeded, env)
        assert out is not None
        from minisol.exprs import eval_rvalue
        assert eval_rvalue(30, lhs, out, env).payload == IntPayload(99)

    def test_insert_into_a_cyclic_chain_fails(self, sigma, env):
        m = Address(5)
        seeded = init_var(sigma, env, None, Tmap(Tuint(), Tuint()), m)
        head = seeded.blocks[m.index]
        seeded = gm.write(seeded, m, replace(head, payload=replace(head.payload, next=m)))
        lhs = Econst(Vmap(m, (Econst(Vint(1)),), Tuint(), Tuint()))
        r = drive(200, seeded, env, seeded, [Assign(lhs, Econst(Vint(1)))])
        assert r.final() is None
        assert r.reason == "mapping insert failed"

    def test_insert_evaluates_each_key_once(self, sigma, env, monkeypatch):
        from minisol import exprs, stmts
        m, k = Address(5), Address(6)
        seeded = init_var(sigma, env, None, Tmap(Tuint(), Tuint()), m)
        seeded = init_var(seeded, env, None, Tuint(), k)
        seeded = gm.write(seeded, k, replace(seeded.blocks[k.index], payload=IntPayload(3)))
        calls = []
        original = exprs.eval_rvalue

        def counted(*args):
            calls.append(args[1])
            return original(*args)
        monkeypatch.setattr(exprs, "eval_rvalue", counted)
        monkeypatch.setattr(stmts, "eval_rvalue", counted)
        lhs = Econst(Vmap(m, (Evar(k, Tuint()),), Tuint(), Tuint()))
        assert run([Assign(lhs, Econst(Vint(1)))], seeded, env) is not None
        assert calls == [lhs.value.keys[0]]  # the right side runs its own closure

    def test_inner_and_outer_keys_are_linked_at_their_chain_tails(self, sigma, env):
        from minisol.exprs import eval_rvalue
        m = Address(5)
        inner_t = Tmap(Tuint(), Tuint())
        seeded = init_var(sigma, env, None, Tmap(Tuint(), inner_t), m)

        def entry(a, b):
            return Econst(Vmap(m, (Econst(Vint(a)), Econst(Vint(b))), Tuint(), inner_t))
        # (1, 2) creates outer key 1; (1, 3) finds it and misses inside it;
        # (4, 5) adds a second outer key.
        writes = [(1, 2, 12), (1, 3, 13), (4, 5, 45)]
        out = run([Assign(entry(a, b), Econst(Vint(v))) for a, b, v in writes],
                  seeded, env)
        assert out is not None
        for a, b, v in writes:
            assert eval_rvalue(30, entry(a, b), out, env).payload == IntPayload(v)

        def chain(base):
            nodes, cur = [], out.blocks[base.index].payload.next
            while cur is not None:
                nodes.append(out.blocks[cur.index].payload)
                cur = nodes[-1].next
            return nodes
        outer = chain(m)
        assert [n.kv[0] for n in outer] == [IntPayload(1), IntPayload(4)]
        assert [n.kv[0] for n in chain(outer[0].kv[1].init)] == [IntPayload(2), IntPayload(3)]
        assert [n.kv[0] for n in chain(outer[1].kv[1].init)] == [IntPayload(5)]


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
        lhs = Econst(Vmap(m, (Evar(k, Tuint()),), Tuint(), Tuint()))
        assert run([Assign(lhs, Econst(Vint(1)))], seeded, env) is None

    def test_symbolic_value_under_concrete_key_is_stored(self, sigma, env):
        from minisol.symbolic import SymVar
        m, v = Address(5), Address(6)
        seeded = init_var(sigma, env, None, Tmap(Tuint(), Tuint()), m)
        seeded = init_var(seeded, env, None, Tuint(), v)
        seeded = gm.write(seeded, v,
                          replace(seeded.blocks[v.index],
                                  payload=IntPayload(SymVar("x"))), "dir")
        lhs = Econst(Vmap(m, (Econst(Vint(3)),), Tuint(), Tuint()))
        out = run([Assign(lhs, Evar(v, Tuint()))], seeded, env)
        assert out is not None
        from minisol.exprs import eval_rvalue
        got = eval_rvalue(30, lhs, out, env)
        assert got.payload == IntPayload(SymVar("x"))


# ---------------------------------------------------------------------------
# The division mark: whether a statement's own expressions divide by other
# than a nonzero literal, the only way a dispatch can build a new guard

def over(divisor, op="/"):
    return Ebop(op, Evar(Y, Tuint()), divisor)


D = Evar(X, Tuint())


class TestDivisionMark:
    @pytest.mark.parametrize("rhs", [
        over(D), over(Ebop("+", D, Econst(Vint(1)))), over(Econst(Vint(0))),
        over(Econst(Vint(256, 8))), over(D, "%"), Ebop("+", Econst(Vint(1)), over(D)),
    ], ids=["variable", "expression", "zero", "zero at its width", "modulo", "nested"])
    def test_a_division_by_other_than_a_nonzero_literal_marks(self, rhs):
        assert divides_by_nonliteral(Assign(Evar(Y, Tuint()), rhs))

    @pytest.mark.parametrize("stmt", [
        Assign(Econst(Varray(Tarray(4, Tuint()), (over(D),), Address(10))), Econst(Vint(1))),
        Assign(Evar(Y, Tuint()), Econst(Vmap(Address(20), (over(D),), Tuint(), Tuint()))),
    ], ids=["array index", "mapping key"])
    def test_a_division_inside_an_address_or_a_bound_argument_marks(self, stmt):
        assert divides_by_nonliteral(stmt)

    @pytest.mark.parametrize("stmt", [
        Assign(Evar(Y, Tuint()), over(Econst(Vint(2)))),
        Returns((over(Econst(Vint(7)), "%"),)),
        If(Ebop("<", D, Econst(Vint(3))), (Assign(Evar(Y, Tuint()), over(D)),), ()),
        LoopWhile(Ebop("<", D, Econst(Vint(3))), (Returns((over(D),)),)),
    ], ids=["by 2", "modulo 7", "if with a dividing arm", "loop with a dividing body"])
    def test_a_nonzero_literal_divisor_or_a_nested_statement_does_not_mark(self, stmt):
        assert not divides_by_nonliteral(stmt)

    def test_the_mark_is_kept_on_hand_built_and_decoded_statements(self, sigma, env):
        seeded = declared(sigma, env)
        seeded = gm.write(seeded, X, replace(seeded.blocks[X.index],
                                             payload=IntPayload(SymVar("d"))), "dir")
        built = Assign(Evar(Y, Tuint()), Ebop("/", Econst(Vint(10)), D))
        data = program_to_data([built])
        decoded, = program_from_data(data)
        for stmt in (built, decoded):
            assert stmt.may_divide is None
            stop = drive(200, seeded, env, None, (stmt,))
            assert (stop.stop, [str(tree) for s in stop.step.splits
                                for _what, tree in s.values]) == (SYMBOLIC, ["(10 / d)"])
            assert stmt.may_divide is True
        assert program_to_data([built]) == data  # the mark is never serialized
