"""Engine: whole runs, stepping, path exploration, triple checking."""

import itertools
import operator
import random
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from minisol import memory as gm
from minisol.binder import bind_addresses
from minisol.engine import (
    Constraint,
    Models,
    PathState,
    Post,
    SymbolicValue,
    assignments,
    concretize,
    concretize_payload,
    explore,
    interpret,
    satisfying_assignments,
    step,
    symbolic_blocks,
    throw_state_post,
    unchanged,
    verify_triple,
)
from minisol.memory import Address, BoolPayload, IntPayload, MemoryState, MemoryValue
from minisol.parser import parse_source
from minisol.proggen import generate_program
from minisol.runner import build_world, compile_posts, entry_program, make_pre, spec_expr
from minisol.specfile import SpecError, parse_spec
from minisol.stdlib import fresh_memory
from minisol.stmts import ERROR, drive, init_var
from minisol.symbolic import SymConst, SymOp, SymVar, is_symbolic
from minisol.syntax import (
    Assign,
    Ebop,
    Econst,
    Efun,
    Evar,
    Fun,
    FunCall,
    If,
    LoopWhile,
    Snil,
    Tbool,
    Tfid,
    Throw,
    Tuint,
    Var,
    Vbool,
    Vint,
)
from minisol.values import BlockInfo, initial_env

X = Address(0)
B = Address(1)


def poke(sigma, addr, payload):
    return gm.write(sigma, addr,
                    replace(sigma.blocks[addr.index], payload=payload), "dir")


def declared_world(gas=1000, mem=100):
    sigma = fresh_memory(mem)
    names = gm.reserved_addresses(mem)
    env = initial_env(gas, names["0xglobal"])
    sigma = init_var(sigma, env, "public", Tuint(), X)
    sigma = init_var(sigma, env, "public", Tbool(), B)
    return sigma, env, names


class TestInterpret:
    def test_empty_program_returns_state(self):
        sigma, env, _ = declared_world()
        assert interpret(100, sigma, env, []) is sigma

    def test_absent_state_propagates(self):
        _, env, _ = declared_world()
        assert interpret(100, None, env, [Snil()]) is None

    @pytest.mark.parametrize("g", [1, 10, 1000])
    def test_spin_halts_after_exactly_g_statements(self, g):
        # Counted with an instrumented context: the dispatch loop pays
        # one unit of gas per executed statement.
        sigma, _, names = declared_world()
        env = initial_env(g, names["0xglobal"])
        out = interpret(1000, sigma, env,
                     [LoopWhile(Econst(Vbool(True)), (Snil(),))])
        assert out.blocks == sigma.blocks
        # dispatch count equals the gas budget: with g+1 the state is
        # also unchanged but one more skip has executed; observe the
        # boundary via a terminating counter program instead
        counter = [Assign(Evar(X, Tuint()),
                          Ebop("+", Evar(X, Tuint()), Econst(Vint(1))))] * (g + 2)
        seeded = poke(sigma, X, IntPayload(0))
        out2 = interpret(1000, seeded, env, counter)
        assert out2.blocks[X.index].payload == IntPayload(g)

    def test_symbolic_branch_in_concrete_run_is_absent(self):
        sigma, env, _ = declared_world()
        sigma = poke(sigma, B, BoolPayload(SymVar("b")))
        run = drive(100, sigma, env, sigma, [If(Evar(B, Tbool()), (Snil(),), (Snil(),))])
        assert run.final() is None
        assert run.reason


class TestStep:
    def test_step_over_snil_costs_one_gas(self):
        sigma, env, _ = declared_world(gas=10)
        ps = PathState(sigma, env, (), (Snil(),), sigma)
        out = step(ps)
        assert out.env.gas == 9
        assert out.sigma.blocks == sigma.blocks
        assert out.remaining == ()

    def test_step_over_assign_dump_shows_written_block(self):
        sigma, env, _ = declared_world()
        ps = PathState(sigma, env, (),
                       (Assign(Evar(X, Tuint()), Econst(Vint(5))),),
                       sigma)
        out = step(ps)
        line = gm.dump(out.sigma).splitlines()[X.index]
        assert line.split("\t")[4] == "int:u64:5"
        assert gm.read(out.sigma, X, "dir").payload == IntPayload(5)

    def test_finished_and_stuck_notes(self):
        sigma, env, _ = declared_world()
        done = PathState(sigma, env, (), ())
        assert step(done).note == "finished"
        bad = PathState(sigma, env, (),
                        (Assign(Evar(Address(50), Tuint()), Econst(Vint(1))),))
        out = step(bad)
        assert out.note.startswith("stuck")
        assert out.remaining == bad.remaining  # preserved for inspection

    def test_a_symbolic_divisor_stops_a_step_and_a_run_by_name(self):
        sigma, env, _ = declared_world()
        sigma = poke(sigma, X, IntPayload(SymVar("d")))
        prog = (Assign(Evar(X, Tuint()), Ebop("/", Econst(Vint(10)), Evar(X, Tuint()))),)
        out = step(PathState(sigma, env, (), prog, sigma))
        assert (out.note, out.remaining, out.env.gas) == (
            "stuck: symbolic branch or divisor", prog, env.gas)
        run = drive(100, sigma, env, sigma, prog)
        assert run.final() is None
        assert run.reason == "symbolic branch or divisor reached in concrete execution"

    def test_stepping_to_a_throw_restores_the_paths_entry_state(self):
        # x = 1; throw; stepped twice ends where the path started, flag raised.
        sigma, env, names = declared_world()
        prog = (Assign(Evar(X, Tuint()), Econst(Vint(1))), Throw())
        out = step(step(PathState(sigma, env, (), prog, sigma)))
        throw = names["0xthrow"].index
        assert (out.note, out.remaining) == ("throw", ())
        assert list(out.sigma.blocks.diff(sigma.blocks)) == [throw]
        assert out.sigma.blocks[throw].payload == BoolPayload(True)

    def test_returned_body_halts_via_env_check(self):
        # A return writes its slot and ends its frame: the body statements
        # left before the frame's FunStop are dropped, not executed, and the
        # caller's domain is restored.
        from minisol.syntax import FunStop, Returns

        sigma, env, names = declared_world()
        fun, lam = Address(40), Address(41)
        sigma2 = poke(sigma, fun, gm.FunctionInfo((Tuint(),), (), lam, ()))
        sigma2 = replace(sigma2, blocks=sigma2.blocks[:lam.index]
                         + (MemoryValue(gm.Undef(), domain=env.domain,
                                        occupancy=gm.OCCUPY),)
                         + sigma2.blocks[lam.index + 1:])
        inner_env = replace(env, domain=fun)
        ps = PathState(sigma2, inner_env, (),
                       (Returns((Econst(Vint(1)),)),
                        Assign(Evar(X, Tuint()), Econst(Vint(9))),
                        FunStop(caller=env.domain)),
                       sigma2)
        after_return = step(ps)
        assert after_return.env.domain == env.domain
        assert after_return.remaining == ()
        assert after_return.sigma.blocks[lam.index].payload == IntPayload(1)
        halted = step(after_return)
        assert halted.note == "finished"
        assert halted.sigma.blocks[X.index].payload != IntPayload(9)


def sym_bool_world():
    sigma, env, names = declared_world()
    sigma = poke(sigma, B, BoolPayload(SymVar("b")))
    return sigma, env


class TestExplore:
    def test_single_symbolic_bool_two_paths(self):
        sigma, env = sym_bool_world()
        prog = (If(Evar(B, Tbool()),
                   (Assign(Evar(X, Tuint()), Econst(Vint(1))),),
                   (Assign(Evar(X, Tuint()), Econst(Vint(2))),)),)
        paths = explore(100, PathState(sigma, env, (), prog, sigma, models=tuple(
            assignments([SymbolicValue("b", "bool")]))))
        assert len(paths) == 2
        values = sorted(p.sigma.blocks[X.index].payload.value for p in paths)
        assert values == [1, 2]

    def test_inconsistent_branch_pruned(self):
        sigma, env = sym_bool_world()
        inner = (If(Evar(B, Tbool()), (Assign(Evar(X, Tuint()), Econst(Vint(1))),),
                    (Assign(Evar(X, Tuint()), Econst(Vint(2))),)),)
        prog = (If(Evar(B, Tbool()), inner, (Snil(),)),)
        paths = explore(100, PathState(sigma, env, (), prog, sigma, models=tuple(
            assignments([SymbolicValue("b", "bool")]))))
        # true/true and false are feasible; true/false contradicts
        assert len(paths) == 2

    def test_forked_paths_keep_their_own_diagnostics(self):
        sigma, env = sym_bool_world()
        prog = (If(Evar(B, Tbool()),
                   (Assign(Evar(None, Tuint()), Econst(Vint(1))),),
                   (Var(None, Evar(None, Tuint())),)),)
        paths = explore(100, PathState(sigma, env, (), prog, sigma, models=tuple(
            assignments([SymbolicValue("b", "bool")]))))
        by_branch = {p.condition[0].expected: p for p in paths}
        assert by_branch[True].note == "error: assignment target has no address"
        assert by_branch[False].note == "error: declaration without an address"
        # Every path restores the state the exploration entered with.
        assert all(p.init is sigma for p in paths)

    def test_a_throw_after_a_fork_restores_the_explored_entry_state(self):
        # x = 1; if (b) { throw; }: the b = true path ends in the entry state,
        # where x is unset, and not in the fork point's, where x is 1.
        sigma, env = sym_bool_world()
        prog = (Assign(Evar(X, Tuint()), Econst(Vint(1))), If(Evar(B, Tbool()), (Throw(),)))
        paths = explore(100, PathState(sigma, env, (), prog, sigma, models=tuple(
            assignments([SymbolicValue("b", "bool")]))))
        thrown = {p.condition[0].expected: p for p in paths}[True]
        throw = gm.reserved_addresses(sigma.size)["0xthrow"].index
        assert thrown.note == "throw"
        assert thrown.sigma.blocks[X.index] == sigma.blocks[X.index]
        assert list(thrown.sigma.blocks.diff(sigma.blocks)) == [throw]
        assert thrown.sigma.blocks[throw].payload == BoolPayload(True)

    def test_partition_of_finite_domains(self):
        # Union of path conditions covers the declared domain exactly once.
        sigma, env, names = declared_world()
        sigma = poke(sigma, X, IntPayload(SymVar("n")))
        prog = (If(Ebop("<", Evar(X, Tuint()), Econst(Vint(3))),
                   (Snil(),),
                   (If(Ebop("<", Evar(X, Tuint()), Econst(Vint(6))),
                       (Snil(),), (Snil(),)),)),)
        symbols = [SymbolicValue("n", "int", lo=0, hi=7)]
        paths = explore(100, PathState(sigma, env, (), prog, sigma,
                                       models=tuple(assignments(symbols))))
        assert len(paths) == 3
        cover = {}
        for p in paths:
            for asg in satisfying_assignments(p.condition, symbols):
                key = asg["n"]
                cover[key] = cover.get(key, 0) + 1
        assert cover == {n: 1 for n in range(8)}

    def test_branch_the_path_condition_decides_needs_no_search(self, monkeypatch):
        sigma, env = sym_bool_world()
        prog = (If(Evar(B, Tbool()), (Snil(),), (Throw(),)),)
        condition = (Constraint(SymVar("b"), True),)
        models = Models(symbols=[SymbolicValue("b", "bool")], condition=condition)
        assert models.witness == {"b": True}

        def no_search(*_args):
            raise AssertionError("searched the domain product")
        monkeypatch.setattr("minisol.engine.satisfying_assignments", no_search)
        paths = explore(100, PathState(sigma, env, condition, prog, sigma, models=models))
        assert [p.note for p in paths] == ["completed"]
        assert paths[0].models is models

    def test_gas_exhaustion_yields_exhausted_path(self):
        sigma, env, names = declared_world()
        tight = initial_env(3, names["0xglobal"])
        prog = (LoopWhile(Econst(Vbool(True)), (Snil(),)),)
        paths = explore(100, PathState(sigma, tight, (), prog,
                                       sigma, models=({},)))
        assert [p.note for p in paths] == ["exhausted"]

    def test_path_soundness_witness_replay(self):
        # Any explored path's witness, run concretely, reproduces the
        # path's concretized final state.
        sigma, env, names = declared_world()
        sigma0 = poke(sigma, X, IntPayload(SymVar("n")))
        prog = (If(Ebop("<", Evar(X, Tuint()), Econst(Vint(4))),
                   (Assign(Evar(X, Tuint()),
                           Ebop("+", Evar(X, Tuint()), Econst(Vint(10)))),),
                   (Snil(),)),)
        symbols = [SymbolicValue("n", "int", lo=0, hi=7)]
        paths = explore(100, PathState(sigma0, env, (), prog, sigma0,
                                       models=tuple(assignments(symbols))))
        assert len(paths) == 2
        for p in paths:
            for asg in satisfying_assignments(p.condition, symbols):
                concrete0 = poke(sigma, X, IntPayload(asg["n"]))
                replay = interpret(100, concrete0, env, prog)
                assert replay.blocks == concretize(p.sigma, asg).blocks


class TestDeterminism:
    def test_repeated_runs_bit_identical(self):
        rng = random.Random(99)
        for _ in range(25):
            prog = generate_program(rng.randrange(1 << 30), length=5)
            sigma = fresh_memory(64)
            env = initial_env(500, sigma.addr_of("0xglobal"))
            a = interpret(200, sigma, env, prog)
            b = interpret(200, sigma, env, prog)
            if a is None:
                assert b is None
            else:
                assert gm.dump(a) == gm.dump(b)


def at_most_five(final, _initial):
    """x <= 5 as the one rule of a ``Post``."""
    v = final.blocks[X.index].payload.value
    return SymOp("<=", (v, SymConst(5))) if is_symbolic(v) else v <= 5


def triple_world(plant_bug: bool):
    """{x = n} prog {x <= 5} with prog clamping x; the planted bug uses
    an off-by-one clamp bound."""
    bound = 6 if plant_bug else 5

    def pre(assignment):
        sigma, env, names = declared_world()
        value = IntPayload(SymVar("n")) if assignment is None \
            else IntPayload(assignment["n"])
        sigma = poke(sigma, X, value)
        return sigma, env

    prog = (If(Ebop(">", Evar(X, Tuint()), Econst(Vint(bound))),
               (Assign(Evar(X, Tuint()), Econst(Vint(5))),),
               (Snil(),)),)
    return pre, prog, Post(at_most_five)


class TestVerifyTriple:
    def test_snil_preserves_state_verified(self):
        def pre(_asg):
            sigma, env, _ = declared_world()
            return sigma, env

        verdict = verify_triple(pre, (Snil(),),
                                Post(lambda final, init: final.blocks == init.blocks))
        assert verdict.status == "verified"

    def test_clamp_verified_over_domain(self):
        pre, prog, post = triple_world(plant_bug=False)
        verdict = verify_triple(pre, prog, post, symbols=[
            SymbolicValue("n", "int", lo=0, hi=9)])
        assert verdict.status == "verified"
        assert len(verdict.paths) == 2

    def test_planted_off_by_one_refuted_with_witness(self):
        pre, prog, post = triple_world(plant_bug=True)
        verdict = verify_triple(pre, prog, post, symbols=[
            SymbolicValue("n", "int", lo=0, hi=9)])
        assert verdict.status == "refuted"
        assert verdict.witness == {"n": 6}
        # the witness reproduces the violation concretely
        pre_b, prog_b, post_b = triple_world(plant_bug=True)
        sigma, env = pre_b(verdict.witness)
        final = interpret(100, sigma, env, prog_b)
        assert not post_b(final, sigma)

    def test_concolic_mode_single_path(self):
        pre, prog, post = triple_world(plant_bug=False)
        verdict = verify_triple(pre, prog, post,
                                symbols=[SymbolicValue("n", "int", lo=0, hi=9)],
                                concolic={"n": 3})
        assert verdict.status == "verified"
        assert len(verdict.paths) == 1

    def test_concolic_missing_value_is_error(self):
        pre, prog, post = triple_world(plant_bug=False)
        verdict = verify_triple(pre, prog, post,
                                symbols=[SymbolicValue("n", "int", lo=0, hi=9)],
                                concolic={})
        assert verdict.status == "error"

    def test_require_constraints_prune_paths(self):
        pre, prog, post = triple_world(plant_bug=True)
        # under n <= 5 the buggy clamp is unreachable and the triple holds
        verdict = verify_triple(pre, prog, post,
                                symbols=[SymbolicValue("n", "int", lo=0, hi=9)],
                                require=[Ebop("<=", Evar(X, Tuint()), Econst(Vint(5)))])
        assert verdict.status == "verified"

    def test_concolic_refutation_reports_the_pinned_witness(self):
        # x <= 5 fails for every n in 6..9; a static run would name n = 6
        pre, _prog, post = triple_world(plant_bug=False)
        verdict = verify_triple(pre, (Snil(),), post,
                                symbols=[SymbolicValue("n", "int", lo=0, hi=9)],
                                concolic={"n": 8})
        assert verdict.status == "refuted"
        assert len(verdict.paths) == 1
        assert verdict.witness == {"n": 8}
        assert verdict.diagnostic == "postcondition fails under {'n': 8}"


def replay_world(concrete):
    """{x = n} with ``concrete(assignment)`` building the replayed world's x,
    so a test can make the concrete replay disagree or raise."""
    def pre(assignment):
        sigma, env, _ = declared_world()
        x = SymVar("n") if assignment is None else concrete(assignment)
        return poke(sigma, X, IntPayload(x)), env
    return pre


def no_replay(_assignment):
    raise RuntimeError("no concrete world")


N_0_9 = [SymbolicValue("n", "int", lo=0, hi=9)]


class TestWitnessReplay:
    def test_a_replay_that_holds_marks_the_witness(self):
        # The symbolic x = n is 6 under the witness; the replayed x is 0.
        verdict = verify_triple(replay_world(lambda _asg: 0), (Snil(),),
                                Post(at_most_five), symbols=N_0_9)
        assert verdict.status == "refuted"
        assert verdict.witness == {"n": 6, "_replay_mismatch": True}

    def test_a_replay_that_raises_marks_the_witness(self):
        verdict = verify_triple(replay_world(no_replay), (Snil(),), Post(at_most_five),
                                symbols=N_0_9)
        assert verdict.status == "refuted"
        assert verdict.witness == {"n": 6, "_replay_error": "no concrete world"}

    def test_an_error_whose_replay_raises_names_no_witness(self):
        prog = (Assign(Evar(X, Tuint()), Ebop("/", Econst(Vint(10)), Evar(X, Tuint()))),)
        for concrete, witness in ((lambda asg: asg["n"], {"n": 0}), (no_replay, None)):
            verdict = verify_triple(replay_world(concrete), prog, Post(at_most_five),
                                    symbols=N_0_9)
            assert (verdict.status, verdict.witness) == ("error", witness)
            assert verdict.diagnostic.endswith("under {'n': 0}: division by zero")


class TestThrowStatePost:
    def test_throw_program_satisfies_throw_post(self):
        sigma, env, names = declared_world()

        def pre(_asg):
            return sigma, env

        verdict = verify_triple(pre, (Throw(),), throw_state_post)
        assert verdict.status == "verified"

    def test_non_throw_program_fails_throw_post(self):
        sigma, env, _ = declared_world()

        def pre(_asg):
            return sigma, env

        verdict = verify_triple(pre, (Snil(),), throw_state_post)
        assert verdict.status == "refuted"


def unshared(sigma):
    """The same state rebuilt from a plain tuple: it shares no leaf with ``sigma``."""
    return MemoryState(tuple(sigma.blocks), sigma.alloc_floor)


def state_pairs(a, b):
    """``(a, b)`` as computed, and with either or both sides rebuilt unshared."""
    return [(a, b), (unshared(a), b), (a, unshared(b)), (unshared(a), unshared(b))]


class TestWholeStateComparisons:
    """Comparisons skip the mids and leaves two states share; rebuilding a
    state so that it shares none must not change any answer."""

    # 100 blocks are one mid of three full leaves (0..31, 32..63, 64..95) and
    # a partial last leaf (96..99); the reserved blocks 90..99 lie in the last two.
    @pytest.mark.parametrize("extra, expected", [
        (None, True),                   # only the throw flag is raised
        (5, False),                     # another change in the first leaf
        (70, False),                    # another change in a leaf of reserved blocks
        ("same", True),                 # a rewrite with an equal, new block
    ])
    def test_throw_state_post(self, extra, expected):
        sigma, _env, names = declared_world()
        final = poke(sigma, names["0xthrow"], BoolPayload(True))
        if extra == "same":
            final = gm.write(final, X, replace(final.blocks[X.index]), "dir")
        elif extra is not None:
            final = poke(final, Address(extra), IntPayload(7))
        for f, i in state_pairs(final, sigma):
            assert throw_state_post(f, i) is expected

    def test_throw_state_post_needs_the_flag(self):
        sigma, _env, _names = declared_world()
        for f, i in state_pairs(sigma, sigma):
            assert throw_state_post(f, i) is False

    @pytest.mark.parametrize("mem, index", [(100, 0), (100, 70), (100, 88), (65, 64),
                                            (2000, 1500)])
    def test_state_equality(self, mem, index):
        sigma = fresh_memory(mem)
        assert all(a == b for a, b in state_pairs(sigma, sigma))
        changed = poke(sigma, Address(index), IntPayload(7))
        assert all(a != b for a, b in state_pairs(changed, sigma))
        restored = poke(changed, Address(index), sigma.blocks[index].payload)
        assert all(a == b for a, b in state_pairs(restored, sigma))
        assert fresh_memory(mem) != fresh_memory(mem + 1)


class TestSymbolicLoops:
    def test_counted_loop_over_symbolic_bound_partitions_domain(self):
        # while (x < n) { x = x + 1 } with symbolic n: one terminal path
        # per distinct iteration count, every path ending with x == n.
        sigma, env, names = declared_world(gas=200)
        sigma = poke(sigma, X, IntPayload(0))
        bound = Address(2)
        from minisol.stmts import init_var
        sigma = init_var(sigma, initial_env(10, names["0xglobal"]),
                         "public", Tuint(), bound)
        sigma = poke(sigma, bound, IntPayload(SymVar("n")))
        prog = (LoopWhile(Ebop("<", Evar(X, Tuint()), Evar(bound, Tuint())),
                          (Assign(Evar(X, Tuint()),
                                  Ebop("+", Evar(X, Tuint()), Econst(Vint(1)))),)),)
        symbols = [SymbolicValue("n", "int", lo=0, hi=3)]
        paths = explore(200, PathState(sigma, env, (), prog, sigma,
                                       models=tuple(satisfying_assignments((), symbols))))
        assert len(paths) == 4
        seen = set()
        for p in paths:
            assignments = list(satisfying_assignments(p.condition, symbols))
            assert len(assignments) == 1  # full partition, one n per path
            n = assignments[0]["n"]
            assert p.sigma.blocks[X.index].payload == IntPayload(n)
            seen.add(n)
        assert seen == {0, 1, 2, 3}

    def test_a_branch_the_path_condition_decides_adds_no_constraint(self):
        # Every iteration after the first meets ``if (b)`` with b decided.
        source = ("contract S { uint r = 0; uint i = 0; bool b; function f() public "
                  "{ while (i < 6) { if (b) { r = r + 1; } i = i + 1; } } }")
        pre, prog, post, spec, _require = spec_triple(
            source, "entry f\nsym b : bool\npost i == 6\n")
        verdict = verify_triple(pre, prog, post, symbols=spec.symbols)
        assert verdict.status == "verified"
        assert [[str(c) for c in p.condition] for p in verdict.paths] == [["b=F"], ["b=T"]]

    def test_undeclared_symbol_in_require_is_error(self):
        # The binder resolves a require line's names against the program.
        bound = bind_addresses(parse_source("contract C { uint n; }"), 100)
        spec = parse_spec("sym n : int 0..1\nrequire mystery > 3\n")
        with pytest.raises(SpecError, match="^line 2: unknown identifier 'mystery'$"):
            spec_expr(bound, *spec.requires[0])


class TestRobustness:
    def test_mixed_random_programs_never_raise(self):
        # Interpreter totality over well-typed inputs: every run returns
        # a state or a classified absent, never an exception.
        from minisol.proggen import INT_T, ProgramGen
        from minisol.syntax import LoopWhile, TypeContext, typecheck_stmt

        rng = random.Random(424242)
        for case in range(150):
            gen = ProgramGen(random.Random(rng.randrange(1 << 30)))
            prog = gen.declarations() + gen.stmt_list(4, 4)
            if rng.random() < 0.4:
                # append a counted for loop over the first variable, lowered
                # to a while whose body ends with the post step
                v = gen.int_vars[0]
                prog.append(LoopWhile(
                    Ebop("<", Evar(v, INT_T), Econst(Vint(2, 64, True))),
                    (*gen.stmt_list(2, 2),
                     Assign(Evar(v, INT_T),
                            Ebop("+", Evar(v, INT_T), Econst(Vint(1, 64, True)))))))
            typecheck_stmt(prog, TypeContext())
            sigma = fresh_memory(64)
            env = initial_env(800, sigma.addr_of("0xglobal"))
            out = interpret(250, sigma, env, prog)
            assert out is None or out.size == 64


# ---------------------------------------------------------------------------
# Enumeration reuse: per-path assignment sets and partial concretization

def spec_triple(source, spec_text, gas=10000):
    """(pre, prog, post, spec, require) for a program and spec, as `verify`
    builds them."""
    bound = bind_addresses(parse_source(source), 100)
    spec = parse_spec(spec_text)
    pre = make_pre(bound, gas, BlockInfo(sender=Address(1)), sets=spec.sets,
                   symbols=spec.symbols)
    prog, _ = entry_program(bound, spec.entry)
    return (pre, prog, compile_posts(bound, spec.posts), spec,
            [spec_expr(bound, *r) for r in spec.requires])


def full_concretize(sigma, asg):
    """Reference: rebuild every block, symbolic or not."""
    return replace(sigma, blocks=tuple(
        replace(b, payload=concretize_payload(b.payload, asg)) for b in sigma.blocks))


def reference_judge(paths, post, symbols, pre, prog):
    """Re-enumerate each path's condition and concretize whole states; a
    path whose note is an error makes the verdict an error, witnessed by the
    first model of the first such path's condition under which a concrete
    run of ``prog`` ends without a state."""
    def fails(asg):
        sigma, env = pre(asg)
        return interpret(1000, sigma, env, prog) is None
    failed = next((p for p in paths if p.note.startswith("error")), None)
    if failed is not None:
        return "error", next(filter(fails, satisfying_assignments(failed.condition, symbols)),
                             None)
    for p in paths:
        for asg in satisfying_assignments(p.condition, symbols):
            init = p.init
            if not post(full_concretize(p.sigma, asg), full_concretize(init, asg)):
                return "refuted", asg
    return "verified", None


CMP = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
       "==": operator.eq, "!=": operator.ne}


def branchy_case(seed):
    """An if chain over symbols a, b, c with domains of 3 to 5 values."""
    rng = random.Random(seed)
    domains = {s: (lo, lo + rng.randrange(2, 5))
               for s in "abc" for lo in [rng.randrange(0, 3)]}
    conds = []
    for _ in range(rng.randrange(4, 8)):
        left = rng.choice("abc")
        right = rng.choice([s for s in "abc" if s != left] + [str(rng.randrange(0, 6))])
        conds.append((left, rng.randrange(0, 3), rng.choice(tuple(CMP)), right))
    body = "".join(
        f"        if ({l}{f' + {k}' if k else ''} {op} {r}) {{ r += {1 << j}; }}\n"
        for j, (l, k, op, r) in enumerate(conds))
    source = ("contract Branchy {\n    uint a;\n    uint b;\n    uint c;\n"
              "    uint r = 0;\n    uint s = 7;\n    function f() public {\n"
              + body + "    }\n}\n")
    # r == 0 fails on whole paths; a == lo fails on some models of a path
    post = ("r == 0", "unchanged s", f"a == {domains['a'][0]}")[seed % 3]
    spec = "entry f\n" + "".join(
        f"sym {s} : int {lo}..{hi}\n" for s, (lo, hi) in domains.items()) + f"post {post}\n"

    def outcomes(asg):
        return tuple(CMP[op](asg[l] + k, asg[r] if r in asg else int(r))
                     for l, k, op, r in conds)
    grid = [dict(zip("abc", v)) for v in itertools.product(
        *(range(lo, hi + 1) for lo, hi in domains.values()))]
    return source, spec, len({outcomes(asg) for asg in grid})


class TestEnumerationReuse:
    @pytest.mark.parametrize("seed", range(12))
    def test_models_and_verdicts_match_reenumerating_judge(self, seed):
        source, spec_text, n_paths = branchy_case(seed)
        pre, prog, post, spec, _require = spec_triple(source, spec_text)
        symbols = tuple(spec.symbols)
        verdict = verify_triple(pre, prog, post, symbols=symbols)
        assert len(verdict.paths) == n_paths
        for p in verdict.paths:
            assert p.models == tuple(satisfying_assignments(p.condition, symbols))
        status, witness = reference_judge(verdict.paths, post, symbols, pre, prog)
        assert verdict.status == status
        assert verdict.witness == witness

    def test_a_fork_checks_no_witness_again(self, monkeypatch):
        # A fork evaluates its condition once under each parent model and
        # gives each child its side, so no constraint is checked under a
        # model it was already split by.
        checked = []
        holds = Constraint.holds
        monkeypatch.setattr(Constraint, "holds",
                            lambda c, asg: checked.append(c) or holds(c, asg))
        golden = Path("tests/golden")
        pre, prog, post, spec, _require = spec_triple(
            (golden / "branchy.lls").read_text(encoding="utf-8"),
            (golden / "branchy.spec").read_text(encoding="utf-8"))
        assert [(s.lo, s.hi) for s in spec.symbols] == [(0, 3)] * 3
        verdict = verify_triple(pre, prog, post, symbols=tuple(spec.symbols))
        assert (verdict.status, len(verdict.paths) > 1) == ("refuted", True)
        assert checked == []

    def test_concretize_rebuilds_only_symbolic_blocks(self):
        with open("samples/wallet.lls", encoding="utf-8") as fh:
            source = fh.read()
        with open("samples/no_in_time.spec", encoding="utf-8") as fh:
            pre, _prog, _post, _spec, _require = spec_triple(source, fh.read())
        sigma = pre(None)[0]
        asg = {"privilegeOpen": 3, "privilegeClose": 5, "now": 1}
        out = concretize(sigma, asg)
        indices = symbolic_blocks(sigma)
        assert len(indices) == 3
        assert out.blocks == full_concretize(sigma, asg).blocks
        assert symbolic_blocks(out) == ()
        for i, (a, b) in enumerate(zip(out.blocks, sigma.blocks)):
            assert (a is b) == (i not in indices)


# ---------------------------------------------------------------------------
# Obligations: the judge decides on symbolic states what concretizing decides

DIVISION = ("contract D {\n    uint d;\n    uint r;\n    uint s = 7;\n"
            "    function f() public { r = 10 / d; }\n}\n")

# Writes symbolic values, so posts leave residuals on the symbolic states.
SYMBOLIC_WRITES = """\
contract E {
    uint a;
    uint b;
    uint r;
    bool t;
    function f() public {
        if (a < b) { r = a + b; t = a == 1; } else { a = a * 1; }
        if (b == 2) { throw; }
    }
}
"""


def obligation_case(seed):
    """(source, spec text) of a branchy, wallet, division or symbolic-write
    program with one or two posts drawn from every kind."""
    rng = random.Random(seed)
    kind = seed % 4
    if kind == 0:
        source, spec, _ = branchy_case(seed)
        head = spec.rpartition("post ")[0]
        pool = ["throw-state", "r == 0", f"r == {rng.randrange(0, 8)}",
                f"a == {rng.randrange(0, 4)}", "unchanged s", "unchanged r", "s == 7"]
    elif kind == 1:
        with open("samples/wallet.lls", encoding="utf-8") as fh:
            source = fh.read()
        with open("samples/no_in_time.spec", encoding="utf-8") as fh:
            head = fh.read().replace("0..7", "0..3").rpartition("post ")[0]
        pool = ["throw-state", "unchanged privilegeOpen", "unchanged subscription",
                f"privilegeOpen == {rng.randrange(0, 4)}", f"now == {rng.randrange(0, 4)}"]
    elif kind == 2:
        source = DIVISION
        head = f"entry f\nsym d : int {rng.randrange(0, 2)}..3\n"
        pool = ["throw-state", "unchanged s", "unchanged r", "r == 5", "s == 7"]
    else:
        source = SYMBOLIC_WRITES
        head = f"entry f\nsym a : int 0..3\nsym b : int {rng.randrange(0, 3)}..3\n"
        pool = ["throw-state", "unchanged a", "unchanged r", f"r == {rng.randrange(1, 6)}",
                "t == true", "t == false", f"a == {rng.randrange(0, 4)}"]
    posts = rng.sample(pool, rng.randrange(1, 3))
    return source, head + "".join(f"post {p}\n" for p in posts)


ROOT = Path(__file__).resolve().parents[1]
# The program each committed spec is written for.
SPEC_PROGRAMS = {
    "samples/no_in_time.spec": "samples/wallet.lls",
    "samples/wallet_pre.spec": "samples/wallet.lls",
    "tests/golden/branchy.spec": "tests/golden/branchy.lls",
}


@pytest.mark.parametrize("spec_path", sorted(SPEC_PROGRAMS))
def test_symbolic_worlds_hold_each_symbol_as_a_bare_symvar(spec_path):
    # verify_triple's contract: no payload of the initial state can fail to
    # evaluate, because the only trees a symbolic world holds are the symbols.
    assert sorted(SPEC_PROGRAMS) == sorted(
        str(p.relative_to(ROOT)) for d in ("samples", "tests/golden")
        for p in (ROOT / d).glob("*.spec"))
    source = (ROOT / SPEC_PROGRAMS[spec_path]).read_text(encoding="utf-8")
    spec = parse_spec((ROOT / spec_path).read_text(encoding="utf-8"))
    sigma = build_world(bind_addresses(parse_source(source), 100), 1000,
                        BlockInfo(sender=Address(1)), sets=spec.sets,
                        symbols=spec.symbols).sigma
    held = [sigma.blocks[i].payload for i in symbolic_blocks(sigma)]
    assert len(held) == len(spec.symbols)
    for p in held:
        assert type(p) in (IntPayload, BoolPayload)
        assert type(p.value if type(p) is IntPayload else p.bit) is SymVar


class TestObligations:
    @pytest.mark.parametrize("seed", range(40))
    def test_obligation_judge_matches_concretizing_judge(self, seed):
        source, spec_text = obligation_case(seed)
        pre, prog, post, spec, require = spec_triple(source, spec_text)
        verdict = verify_triple(pre, prog, post, symbols=spec.symbols, require=require)
        assert (verdict.status, verdict.witness) == reference_judge(
            verdict.paths, post, spec.symbols, pre, prog)

    @pytest.mark.parametrize("cond, domain, verdict", [
        ("10 / d > 100", "0..3", ("error", 2, "condition ((10 / d) > 100) fails to evaluate "
                                              "under {'d': 0}")),
        ("d / 0 > 1", "0..3", ("error", 1, "condition ((d / 0) > 1) fails to evaluate "
                                           "under {'d': 0}")),
        ("10 / d > 100", "1..3", ("verified", 1, "")),
        ("10 % d > 100", "0..3", ("error", 2, "condition ((10 % d) > 100) fails to evaluate "
                                              "under {'d': 0}")),
    ])
    def test_a_branch_condition_failing_under_a_model_is_an_error(self, cond, domain, verdict):
        # A concrete run of the d = 0 model fails on the branch condition.
        source = ("contract S { uint r = 0; uint d; function f() public { "
                  f"if ({cond}) {{ r = 1; }} }} }}")
        pre, prog, post, spec, _require = spec_triple(
            source, f"entry f\nsym d : int {domain}\npost r == 0\n", gas=50)
        v = verify_triple(pre, prog, post, symbols=spec.symbols)
        assert (v.status, len(v.paths), v.diagnostic) == verdict
        if v.status == "error":
            # The terminal stops where that run stops: before the If's
            # dispatch, with the call's gas spent and the If at the head.
            sigma, env = pre({"d": 0})
            run = drive(1000, sigma, env, sigma, prog)
            assert (run.stop, run.env.gas, type(run.remaining[0])) == (ERROR, 49, If)
            p, = [p for p in v.paths if p.note.startswith("error")]
            assert (p.env.gas, type(p.remaining[0])) == (49, If)

    def test_a_require_failing_under_a_model_drops_that_model(self):
        # 10 / w fails under w = 0, which makes the require false there;
        # without the require the post is refuted at w = 0.
        source = "contract S { uint r; uint w; function f() public { r = 1; } }"
        for require, verdict in (("require 10 / w > 2\n", ("verified", None)),
                                 ("", ("refuted", {"w": 0}))):
            pre, prog, post, spec, req = spec_triple(
                source, f"entry f\nsym w : int 0..3\n{require}post w != 0\n")
            v = verify_triple(pre, prog, post, symbols=spec.symbols, require=req)
            assert (v.status, v.witness) == verdict

    def test_a_stored_quotient_is_guarded_once_on_the_paths_that_branch_on_it(self):
        # The If reads a tree its Assign guarded when storing it: the If does
        # not divide, so it adds no second guard.
        source = ("contract S { uint r = 0; uint d; function f() public { "
                  "r = 10 / d; if (r > 1) { r = 1; } } }")
        pre, prog, post, spec, _require = spec_triple(
            source, "entry f\nsym d : int 0..3\npost r == 1\n")
        v = verify_triple(pre, prog, post, symbols=spec.symbols)
        assert v.status == "error"
        # The d == 0 model ends on one error terminal; the path that goes on
        # holds the guard once.
        assert [(p.note.startswith("error"), [m["d"] for m in p.models],
                 [str(c) for c in p.condition]) for p in v.paths] == [
            (True, [0], []), (False, [1, 2, 3], ["(d != 0)=T", "((10 / d) > 1)=T"])]

    def test_guards_name_each_symbolic_divisor_once_inner_first(self):
        d = SymVar("d")
        inner = SymOp("/", (SymConst(5), d), 64)
        cases = [
            (SymOp("/", (d, SymConst(2)), 64), []),
            (SymOp("%", (d, SymConst(0)), 64), ["(0 != 0)"]),
            (SymOp("+", (inner, inner), 64), ["(d != 0)"]),
            (SymOp("/", (SymConst(10), inner), 64), ["(d != 0)", "((5 / d) != 0)"]),
        ]
        assert [[str(g) for g in tree.guards] for tree, _ in cases] == [g for _, g in cases]

    def test_division_by_zero_stays_an_error_naming_the_assignment(self):
        pre, prog, post, spec, _require = spec_triple(
            DIVISION, "entry f\nsym d : int 0..3\npost unchanged s\n")
        verdict = verify_triple(pre, prog, post, symbols=spec.symbols)
        assert verdict.status == "error"
        assert verdict.diagnostic == ("assignment right side (10 / d) fails to evaluate "
                                      "under {'d': 0}: division by zero")
        # The d = 0 model ends there; the others go on, carrying d != 0.
        assert [([m["d"] for m in p.models], [str(c) for c in p.condition])
                for p in verdict.paths] == [([0], []), ([1, 2, 3], ["(d != 0)=T"])]

    def test_writing_the_held_value_in_a_call_leaves_the_block_unchanged(self):
        # x = 5 over 5 inside a function stores a block equal to the entry one
        fun, lam = Address(40), Address(41)

        def pre(_assignment):
            sigma, env, _ = declared_world()
            return poke(sigma, X, IntPayload(5)), env

        prog = (Fun(fun, (), (), (), (Assign(Evar(X, Tuint()), Econst(Vint(5))),), lam),
                FunCall(Efun(fun, Tfid(fun)), ()))
        verdict = verify_triple(pre, prog, Post(partial(unchanged, X.index)))
        assert verdict.status == "verified"

    def test_expression_posts_on_a_symbolic_bool(self):
        bound = bind_addresses(parse_source("contract C { bool t; }"), 100)
        sigma = build_world(bound, 100, BlockInfo(), symbols=parse_spec(
            "sym t : bool\n").symbols).sigma
        for post, models in (("t == true", [False, True]), ("t == false", [True, False]),
                             ("!t", [True, False])):
            goal = compile_posts(bound, parse_spec(f"post {post}\n").posts).obligation(
                sigma, sigma)
            assert [goal.eval({"t": t}) for t in (False, True)] == models, post

    def test_a_bool_post_compared_with_an_integer_is_a_type_error(self):
        bound = bind_addresses(parse_source("contract C { bool t; }"), 100)
        with pytest.raises(SpecError, match="^line 1: comparison == over unequal types "
                                            "bool and uint64$"):
            compile_posts(bound, parse_spec("post t == 1\n").posts)

    def test_obligations_on_symbolic_states(self):
        sigma, _env, names = declared_world()
        initial = poke(poke(sigma, X, IntPayload(SymVar("n"))), B, BoolPayload(SymVar("b")))
        final = poke(initial, names["0xthrow"], BoolPayload(True))
        post = compile_posts(bind_addresses(parse_source("contract C { uint x; }"), 100), [])
        assert post.obligation(final, initial) is True
        assert throw_state_post.obligation(final, initial) is True
        assert throw_state_post.obligation(initial, initial) is False
        moved = poke(final, X, IntPayload(SymOp("+", (SymVar("n"), SymVar("n")), 64)))
        residual = throw_state_post.obligation(moved, initial)
        assert [residual.eval({"n": n}) for n in (0, 1)] == [True, False]


# ---------------------------------------------------------------------------
# Forking: the paths of a symbolic if, while and for, pinned by a golden.
# ``tests/golden/explore-<case>.out`` is ``render_paths`` of the case's paths.

GOLDEN = Path(__file__).resolve().parent / "golden"

FORK_WHILE = """\
contract Loop {
    uint n;
    uint i = 0;
    uint r = 0;
    function f() public {
        while (i < n) { i += 1; r += 2; }
        r += 1;
    }
}
"""

FORK_FOR = """\
contract Loop {
    uint n;
    uint i;
    uint r = 0;
    function f() public {
        for (i = 1; i <= n; i += 1) { r += i; }
    }
}
"""


def explore_source(source, symbols, gas):
    """Every path of the entry ``f`` with ``n`` symbolic over ``symbols``."""
    bound = bind_addresses(parse_source(source), 48)
    spec = parse_spec("entry f\n" + symbols)
    pre = make_pre(bound, gas, BlockInfo(sender=Address(1)), symbols=spec.symbols)
    prog, _ = entry_program(bound, spec.entry)
    sigma, env = pre(None)
    return explore(1000, PathState(sigma, env, (), tuple(prog), sigma, models=tuple(
        satisfying_assignments((), spec.symbols))))


def fork_last_gas_unit():
    """A symbolic if dispatched with the last unit of gas."""
    sigma, _env, names = declared_world()
    sigma = poke(sigma, X, IntPayload(SymVar("n")))
    env = initial_env(1, names["0xglobal"])
    prog = (If(Ebop("<", Evar(X, Tuint()), Econst(Vint(2))),
               (Assign(Evar(X, Tuint()), Econst(Vint(7))),), ()),)
    return explore(100, PathState(sigma, env, (), prog, sigma,
                                  models=tuple(assignments([SymbolicValue("n", hi=3)]))))


def render_paths(paths) -> str:
    """Condition texts, note, gas left, what remains and the occupied blocks."""
    lines = []
    for p in paths:
        lines.append(" ".join(str(c) for c in p.condition))
        lines.append(f"  note={p.note!r} gas={p.env.gas} "
                     f"remaining={[type(s).__name__ for s in p.remaining]}")
        dump = gm.dump(p.sigma).splitlines() if p.sigma is not None else ["no state"]
        lines += ("  " + line for line in dump if "\tfree\t" not in line)
    return "\n".join(lines) + "\n"


# At gas 14 and 9 the loop condition forks with the last unit of gas, on
# the paths that reach a fifth and a third test of it.
FORK_CASES = {
    "if-last-gas-unit": fork_last_gas_unit,
    "while": partial(explore_source, FORK_WHILE, "sym n : int 0..5\n", 14),
    "for": partial(explore_source, FORK_FOR, "sym n : int 0..3\n", 9),
}


@pytest.mark.parametrize("name", sorted(FORK_CASES))
def test_fork_paths_match_golden(name):
    text = render_paths(FORK_CASES[name]())
    assert text == (GOLDEN / f"explore-{name}.out").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Modifier guards: a modifier runs on each call, from the call's state

GUARDED = ("contract S {{ uint a; uint r; modifier small() {{ {} }}\n"
           "  function f() public small {{ r = 1; }} }}")
RAISE_IF = "if (a < 2) { modifier_ok = true; }"
RAISE_AS = "modifier_ok = a < 2;"
GUARDED_SPEC = "entry f\nsym a : int 0..3\npost r == 1\n"


class TestModifierGuards:
    def test_symbolic_flag_forks_at_the_guard(self):
        pre, prog, _post, spec, _ = spec_triple(GUARDED.format(RAISE_AS), GUARDED_SPEC)
        sigma, env = pre(None)
        paths = explore(1000, PathState(sigma, env, (), prog, sigma,
                                        models=tuple(assignments(spec.symbols))))
        assert [[str(c)[-2:] for c in p.condition] for p in paths] == [["=F"], ["=T"]]
        throw = gm.reserved_addresses(100)["0xthrow"].index
        assert paths[0].sigma.blocks[throw].payload == BoolPayload(True)
        assert paths[1].sigma.blocks[throw].payload == BoolPayload(False)
        assert paths[1].sigma.blocks[3].payload == IntPayload(1)  # r

    @pytest.mark.parametrize("body", [RAISE_IF, RAISE_AS], ids=["if", "assign"])
    def test_each_verify_path_ends_as_the_run_of_its_value(self, body):
        source = GUARDED.format(body)
        pre, prog, post, spec, _ = spec_triple(source, GUARDED_SPEC)
        verdict = verify_triple(pre, prog, post, symbols=spec.symbols)
        assert (verdict.status, verdict.witness, len(verdict.paths)) == ("refuted", {"a": 2}, 2)
        bound = bind_addresses(parse_source(source), 100)
        for v in range(4):
            world = build_world(bound, 10000, BlockInfo(sender=Address(1)),
                                arg_writes=[("a", v)])
            final = interpret(1000, world.sigma, world.env, prog)
            [path] = [p for p in verdict.paths
                      if {"a": v} in list(satisfying_assignments(p.condition, spec.symbols))]
            assert concretize(path.sigma, {"a": v}).blocks == final.blocks
