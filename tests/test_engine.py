"""Engine: whole runs, stepping, path exploration, triple checking."""

import itertools
import operator
import random
from dataclasses import replace

import pytest

from minisol import memory as gm
from minisol.binder import bind_addresses
from minisol.engine import (
    PathState,
    SegmentSummary,
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
    verify_triple,
)
from minisol.memory import Address, BoolPayload, IntPayload, MemoryState, MemoryValue
from minisol.parser import parse_source
from minisol.proggen import generate_program
from minisol.runner import compile_posts, entry_program, make_pre
from minisol.specfile import parse_spec
from minisol.stdlib import fresh_memory
from minisol.stmts import ExecContext, init_var
from minisol.symbolic import SymOp, SymVar
from minisol.syntax import (
    Assign,
    Ebop,
    Econst,
    Evar,
    If,
    LoopWhile,
    Snil,
    Tbool,
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
        assert interpret(100, sigma, env, env, []) is sigma

    def test_absent_state_propagates(self):
        _, env, _ = declared_world()
        assert interpret(100, None, env, env, [Snil()]) is None

    @pytest.mark.parametrize("g", [1, 10, 1000])
    def test_spin_halts_after_exactly_g_statements(self, g):
        # Counted with an instrumented context: the dispatch loop pays
        # one unit of gas per executed statement.
        sigma, _, names = declared_world()
        env = initial_env(g, names["0xglobal"])
        out = interpret(1000, sigma, env, env,
                     [LoopWhile(Econst(Vbool(True)), (Snil(),))])
        assert out.blocks == sigma.blocks
        # dispatch count equals the gas budget: with g+1 the state is
        # also unchanged but one more skip has executed; observe the
        # boundary via a terminating counter program instead
        counter = [Assign(Evar(X, Tuint()),
                          Ebop("+", Evar(X, Tuint()), Econst(Vint(1))))] * (g + 2)
        seeded = poke(sigma, X, IntPayload(0))
        out2 = interpret(1000, seeded, env, env, counter)
        assert out2.blocks[X.index].payload == IntPayload(g)

    def test_symbolic_branch_in_concrete_run_is_absent(self):
        sigma, env, _ = declared_world()
        sigma = poke(sigma, B, BoolPayload(SymVar("b")))
        ctx = ExecContext(sigma_init=sigma)
        out = interpret(100, sigma, env, env,
                     [If(Evar(B, Tbool()), (Snil(),), (Snil(),))], ctx)
        assert out is None
        assert ctx.diagnostics


class TestStep:
    def test_step_over_snil_costs_one_gas(self):
        sigma, env, _ = declared_world(gas=10)
        ps = PathState(sigma, env, env, (), (Snil(),), ExecContext(sigma_init=sigma))
        out = step(ps)
        assert out.env.gas == 9
        assert out.sigma.blocks == sigma.blocks
        assert out.remaining == ()

    def test_step_over_assign_dump_shows_written_block(self):
        sigma, env, _ = declared_world()
        ps = PathState(sigma, env, env, (),
                       (Assign(Evar(X, Tuint()), Econst(Vint(5))),),
                       ExecContext(sigma_init=sigma))
        dumps = []
        out = step(ps, emit=dumps.append)
        line = dumps[0].splitlines()[X.index]
        assert line.split("\t")[4] == "int:u64:5"
        assert gm.read(out.sigma, X, "dir").payload == IntPayload(5)

    def test_finished_and_stuck_notes(self):
        sigma, env, _ = declared_world()
        done = PathState(sigma, env, env, (), (), ExecContext())
        assert step(done).note == "finished"
        bad = PathState(sigma, env, env, (),
                        (Assign(Evar(Address(50), Tuint()), Econst(Vint(1))),),
                        ExecContext())
        out = step(bad)
        assert out.note.startswith("stuck")
        assert out.remaining == bad.remaining  # preserved for inspection

    def test_returned_body_halts_via_env_check(self):
        # After a return the domain is switched; stepping the leftover
        # body statements halts instead of executing them.
        from minisol.syntax import Return

        sigma, env, names = declared_world()
        fun, lam = Address(40), Address(41)
        sigma2 = poke(sigma, fun, gm.FunctionInfo((Tuint(),), (), lam, ()))
        sigma2 = replace(sigma2, blocks=sigma2.blocks[:lam.index]
                         + (MemoryValue(gm.Undef(), domain=env.domain,
                                        occupancy=gm.OCCUPY),)
                         + sigma2.blocks[lam.index + 1:])
        inner_env = replace(env, level=0, domain=fun)
        ps = PathState(sigma2, inner_env, env, (),
                       (Return(Econst(Vint(1))),
                        Assign(Evar(X, Tuint()), Econst(Vint(9)))),
                       ExecContext(sigma_init=sigma2))
        after_return = step(ps)
        assert after_return.env.domain == env.domain
        assert after_return.sigma.blocks[lam.index].payload == IntPayload(1)
        halted = step(after_return)
        assert halted.note.startswith("halted")
        assert halted.sigma.blocks[X.index].payload != IntPayload(9)


def sym_bool_world():
    sigma, env, names = declared_world()
    sigma = poke(sigma, B, BoolPayload(SymVar("b")))
    ctx = ExecContext(sigma_init=sigma)
    return sigma, env, ctx


class TestExplore:
    def test_single_symbolic_bool_two_paths(self):
        sigma, env, ctx = sym_bool_world()
        prog = (If(Evar(B, Tbool()),
                   (Assign(Evar(X, Tuint()), Econst(Vint(1))),),
                   (Assign(Evar(X, Tuint()), Econst(Vint(2))),)),)
        paths = explore(100, PathState(sigma, env, env, (), prog, ctx, models=tuple(
            assignments([SymbolicValue("b", "bool")]))))
        assert len(paths) == 2
        values = sorted(p.sigma.blocks[X.index].payload.value for p in paths)
        assert values == [1, 2]

    def test_inconsistent_branch_pruned(self):
        sigma, env, ctx = sym_bool_world()
        inner = (If(Evar(B, Tbool()), (Assign(Evar(X, Tuint()), Econst(Vint(1))),),
                    (Assign(Evar(X, Tuint()), Econst(Vint(2))),)),)
        prog = (If(Evar(B, Tbool()), inner, (Snil(),)),)
        paths = explore(100, PathState(sigma, env, env, (), prog, ctx, models=tuple(
            assignments([SymbolicValue("b", "bool")]))))
        # true/true and false are feasible; true/false contradicts
        assert len(paths) == 2

    def test_forked_paths_keep_their_own_diagnostics(self):
        sigma, env, ctx = sym_bool_world()
        prog = (If(Evar(B, Tbool()),
                   (Assign(Evar(None, Tuint()), Econst(Vint(1))),),
                   (Var(None, Evar(None, Tuint())),)),)
        paths = explore(100, PathState(sigma, env, env, (), prog, ctx, models=tuple(
            assignments([SymbolicValue("b", "bool")]))))
        by_branch = {p.condition[0].expected: p for p in paths}
        assert by_branch[True].note == "error: assignment target has no address"
        assert by_branch[True].ctx.diagnostics == ["assignment target has no address"]
        assert by_branch[False].note == "error: declaration without an address"
        assert by_branch[False].ctx.diagnostics == ["declaration without an address"]
        assert ctx.diagnostics == []

    def test_judge_concretizes_a_shared_block_once(self):
        sigma, _env, _ctx = sym_bool_world()
        written = poke(sigma, X, IntPayload(3))
        memo = {}
        final = concretize(written, {"b": True}, None, memo)
        initial = concretize(sigma, {"b": True}, None, memo)
        assert final.blocks[B.index] is initial.blocks[B.index]
        assert final.blocks[B.index].payload == BoolPayload(True)

    def test_partition_of_finite_domains(self):
        # Union of path conditions covers the declared domain exactly once.
        sigma, env, names = declared_world()
        sigma = poke(sigma, X, IntPayload(SymVar("n")))
        ctx = ExecContext(sigma_init=sigma)
        prog = (If(Ebop("<", Evar(X, Tuint()), Econst(Vint(3))),
                   (Snil(),),
                   (If(Ebop("<", Evar(X, Tuint()), Econst(Vint(6))),
                       (Snil(),), (Snil(),)),)),)
        symbols = [SymbolicValue("n", "int", lo=0, hi=7)]
        paths = explore(100, PathState(sigma, env, env, (), prog, ctx,
                                       models=tuple(assignments(symbols))))
        assert len(paths) == 3
        cover = {}
        for p in paths:
            for asg in satisfying_assignments(p.condition, symbols):
                key = asg["n"]
                cover[key] = cover.get(key, 0) + 1
        assert cover == {n: 1 for n in range(8)}

    def test_gas_exhaustion_yields_exhausted_path(self):
        sigma, env, names = declared_world()
        tight = initial_env(3, names["0xglobal"])
        prog = (LoopWhile(Econst(Vbool(True)), (Snil(),)),)
        paths = explore(100, PathState(sigma, tight, tight, (), prog,
                                       ExecContext(sigma_init=sigma), models=({},)))
        assert [p.note for p in paths] == ["exhausted"]

    def test_path_soundness_witness_replay(self):
        # Any explored path's witness, run concretely, reproduces the
        # path's concretized final state.
        sigma, env, names = declared_world()
        sigma0 = poke(sigma, X, IntPayload(SymVar("n")))
        ctx = ExecContext(sigma_init=sigma0)
        prog = (If(Ebop("<", Evar(X, Tuint()), Econst(Vint(4))),
                   (Assign(Evar(X, Tuint()),
                           Ebop("+", Evar(X, Tuint()), Econst(Vint(10)))),),
                   (Snil(),)),)
        symbols = [SymbolicValue("n", "int", lo=0, hi=7)]
        paths = explore(100, PathState(sigma0, env, env, (), prog, ctx,
                                       models=tuple(assignments(symbols))))
        assert len(paths) == 2
        for p in paths:
            for asg in satisfying_assignments(p.condition, symbols):
                concrete0 = poke(sigma, X, IntPayload(asg["n"]))
                replay = interpret(100, concrete0, env, env, prog,
                                ExecContext(sigma_init=concrete0))
                assert replay.blocks == concretize(p.sigma, asg).blocks


class TestDeterminism:
    def test_repeated_runs_bit_identical(self):
        rng = random.Random(99)
        for _ in range(25):
            prog = generate_program(rng.randrange(1 << 30), length=5)
            sigma = fresh_memory(64)
            env = initial_env(500, sigma.addr_of("0xglobal"))
            a = interpret(200, sigma, env, env, prog,
                       ExecContext(sigma_init=sigma))
            b = interpret(200, sigma, env, env, prog,
                       ExecContext(sigma_init=sigma))
            if a is None:
                assert b is None
            else:
                assert gm.dump(a) == gm.dump(b)


def triple_world(plant_bug: bool):
    """{x = n} prog {x <= 5} with prog clamping x; the planted bug uses
    an off-by-one clamp bound."""
    bound = 6 if plant_bug else 5

    def pre(assignment):
        sigma, env, names = declared_world()
        value = IntPayload(SymVar("n")) if assignment is None \
            else IntPayload(assignment["n"])
        sigma = poke(sigma, X, value)
        return sigma, env, env, ExecContext()

    prog = (If(Ebop(">", Evar(X, Tuint()), Econst(Vint(bound))),
               (Assign(Evar(X, Tuint()), Econst(Vint(5))),),
               (Snil(),)),)

    def post(final, initial):
        v = final.blocks[X.index].payload.value
        return v is not None and v <= 5

    return pre, prog, post


class TestVerifyTriple:
    def test_snil_preserves_state_verified(self):
        def pre(_asg):
            sigma, env, _ = declared_world()
            return sigma, env, env, ExecContext()

        verdict = verify_triple(pre, (Snil(),),
                                lambda final, init: final.blocks == init.blocks)
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
        sigma, env, fenv, ctx = pre_b(verdict.witness)
        final = interpret(100, sigma, env, fenv, prog_b, ctx)
        assert not post_b(final, ctx.sigma_init)

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
                                require=[SymOp("<=", (SymVar("n"),
                                                      __import__("minisol.symbolic", fromlist=["SymConst"]).SymConst(5)))])
        assert verdict.status == "verified"

    def test_selective_mode_summary_substitution(self):
        # Replace a straight-line reset segment with its proven state
        # transformer; the remaining branch still explores both arms.
        def pre(assignment):
            sigma, env, _ = declared_world()
            value = IntPayload(SymVar("n")) if assignment is None \
                else IntPayload(assignment["n"])
            sigma = poke(sigma, X, value)
            return sigma, env, env, ExecContext()

        segment = (Assign(Evar(X, Tuint()), Econst(Vint(5))),)
        prog = segment + (If(Ebop(">", Evar(X, Tuint()), Econst(Vint(5))),
                             (Throw(),), (Snil(),)),)

        def post(final, initial):
            return final.blocks[X.index].payload == IntPayload(5)

        summary = SegmentSummary(segment=segment,
                                 transform=lambda s: poke(s, X, IntPayload(5)),
                                 label="reset")
        verdict = verify_triple(pre, prog, post,
                                symbols=[SymbolicValue("n", "int", lo=0, hi=9)],
                                summaries=[summary])
        assert verdict.status == "verified"

    def test_selective_mode_rejects_wrong_summary(self):
        def pre(assignment):
            sigma, env, _ = declared_world()
            value = IntPayload(SymVar("n")) if assignment is None \
                else IntPayload(assignment["n"])
            sigma = poke(sigma, X, value)
            return sigma, env, env, ExecContext()

        segment = (Assign(Evar(X, Tuint()), Econst(Vint(5))),)
        summary = SegmentSummary(segment=segment,
                                 transform=lambda s: poke(s, X, IntPayload(99)),
                                 label="bogus")
        verdict = verify_triple(pre, segment, lambda f, i: True,
                                symbols=[SymbolicValue("n", "int", lo=0, hi=9)],
                                summaries=[summary])
        assert verdict.status == "error"
        assert "validation" in verdict.diagnostic

    def test_summary_is_proven_for_every_model(self):
        # x := x % 3 agrees with x := x * 1 only for n in 0..2, so a
        # summary checked on the first few models would verify x < 3.
        pre, _prog, _post = triple_world(plant_bug=False)
        x = Evar(X, Tuint())
        segment = (Assign(x, Ebop("*", x, Econst(Vint(1)))),)

        def mod3(sigma):
            env = initial_env(10, sigma.addr_of("0xglobal"))
            return interpret(100, sigma, env, env,
                             (Assign(x, Ebop("%", x, Econst(Vint(3)))),),
                             ExecContext(sigma_init=sigma))

        def post(final, initial):
            return final.blocks[X.index].payload.value < 3

        symbols = [SymbolicValue("n", "int", lo=0, hi=9)]
        static = verify_triple(pre, segment, post, symbols=symbols)
        assert (static.status, static.witness) == ("refuted", {"n": 3})
        verdict = verify_triple(pre, segment, post, symbols=symbols,
                                summaries=[SegmentSummary(segment, mod3, "mod3")])
        assert verdict.status == "error"
        assert verdict.diagnostic == "summary failed validation: mod3"

    def test_summary_is_not_spliced_after_other_statements(self):
        # For n in 0..2 the summary x := x % 3 of x := x * 1 holds at the
        # entry state, but after x := 7 the segment leaves x = 7.
        pre, _prog, _post = triple_world(plant_bug=False)
        x = Evar(X, Tuint())
        segment = (Assign(x, Ebop("*", x, Econst(Vint(1)))),)
        prog = (Assign(x, Econst(Vint(7))),) + segment

        def mod3(sigma):
            env = initial_env(10, sigma.addr_of("0xglobal"))
            return interpret(100, sigma, env, env,
                             (Assign(x, Ebop("%", x, Econst(Vint(3)))),),
                             ExecContext(sigma_init=sigma))

        def post(final, initial):
            return final.blocks[X.index].payload.value < 3

        symbols = [SymbolicValue("n", "int", lo=0, hi=2)]
        assert verify_triple(pre, prog, post, symbols=symbols).status == "refuted"
        verdict = verify_triple(pre, prog, post, symbols=symbols,
                                summaries=[SegmentSummary(segment, mod3, "mod3")])
        assert verdict.status in ("refuted", "error")
        assert verdict.diagnostic == "summary segment does not start the program: mod3"

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


class TestThrowStatePost:
    def test_throw_program_satisfies_throw_post(self):
        sigma, env, names = declared_world()
        ctx = ExecContext()

        def pre(_asg):
            return sigma, env, env, ctx

        verdict = verify_triple(pre, (Throw(),), throw_state_post)
        assert verdict.status == "verified"

    def test_non_throw_program_fails_throw_post(self):
        sigma, env, _ = declared_world()

        def pre(_asg):
            return sigma, env, env, ExecContext()

        verdict = verify_triple(pre, (Snil(),), throw_state_post)
        assert verdict.status == "refuted"


def unshared(sigma):
    """The same state rebuilt from a plain tuple: it shares no leaf with ``sigma``."""
    return MemoryState(tuple(sigma.blocks), sigma.symbol_table, sigma.alloc_floor)


def state_pairs(a, b):
    """``(a, b)`` as computed, and with either or both sides rebuilt unshared."""
    return [(a, b), (unshared(a), b), (a, unshared(b)), (unshared(a), unshared(b))]


class TestWholeStateComparisons:
    """Comparisons skip the leaves two states share; rebuilding a state so that
    it shares none must not change any answer."""

    # 100 blocks are a full leaf (0..63) and a partial last leaf (64..99)
    # that also holds the reserved blocks.
    @pytest.mark.parametrize("extra, expected", [
        (None, True),                   # only the throw flag is raised
        (5, False),                     # another change in the first leaf
        (70, False),                    # another change in the partial last leaf
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

    @pytest.mark.parametrize("mem, index", [(100, 0), (100, 70), (100, 88), (65, 64)])
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
        ctx = ExecContext(sigma_init=sigma)
        prog = (LoopWhile(Ebop("<", Evar(X, Tuint()), Evar(bound, Tuint())),
                          (Assign(Evar(X, Tuint()),
                                  Ebop("+", Evar(X, Tuint()), Econst(Vint(1)))),)),)
        symbols = [SymbolicValue("n", "int", lo=0, hi=3)]
        paths = explore(200, PathState(sigma, env, env, (), prog, ctx,
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

    def test_undeclared_symbol_in_require_is_error(self):
        def pre(_asg):
            sigma, env, _ = declared_world()
            return sigma, env, env, ExecContext()

        verdict = verify_triple(pre, (Snil(),), lambda f, i: True,
                                symbols=[SymbolicValue("n", "int", lo=0, hi=1)],
                                require=[SymVar("mystery")])
        assert verdict.status == "error"
        assert "mystery" in verdict.diagnostic


class TestRobustness:
    def test_mixed_random_programs_never_raise(self):
        # Interpreter totality over well-typed inputs: every run returns
        # a state or a classified absent, never an exception.
        from minisol.proggen import INT_T, ProgramGen
        from minisol.syntax import LoopFor, TypeContext, typecheck_stmt

        rng = random.Random(424242)
        for case in range(150):
            gen = ProgramGen(random.Random(rng.randrange(1 << 30)))
            prog = gen.declarations() + gen.stmt_list(4, 4)
            if rng.random() < 0.4:
                # append a counted for loop over the first variable
                v = gen.int_vars[0]
                prog.append(LoopFor(
                    Ebop("<", Evar(v, INT_T), Econst(Vint(2, 64, True))),
                    None,
                    tuple(gen.stmt_list(2, 2)),
                    Assign(Evar(v, INT_T),
                           Ebop("+", Evar(v, INT_T), Econst(Vint(1, 64, True))))))
            typecheck_stmt(prog, TypeContext())
            sigma = fresh_memory(64)
            env = initial_env(800, sigma.addr_of("0xglobal"))
            out = interpret(250, sigma, env, env, prog,
                            ExecContext(sigma_init=sigma))
            assert out is None or out.size == 64


# ---------------------------------------------------------------------------
# Enumeration reuse: per-path assignment sets and partial concretization

def spec_triple(source, spec_text):
    """(pre, prog, post, spec) for a program and spec, as `verify` builds them."""
    bound = bind_addresses(parse_source(source), 100)
    spec = parse_spec(spec_text)
    pre = make_pre(bound, 10000, BlockInfo(sender=Address(1)), sets=spec.sets,
                   symbols=spec.symbols)
    prog, _ = entry_program(bound, spec.entry)
    return pre, prog, compile_posts(bound, spec.posts), spec


def full_concretize(sigma, asg):
    """Reference: rebuild every block, symbolic or not."""
    return replace(sigma, blocks=tuple(
        replace(b, payload=concretize_payload(b.payload, asg)) for b in sigma.blocks))


def reference_judge(paths, post, symbols):
    """Re-enumerate each path's condition and concretize whole states."""
    for p in paths:
        for asg in satisfying_assignments(p.condition, symbols):
            init = p.ctx.sigma_init
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
        pre, prog, post, spec = spec_triple(source, spec_text)
        symbols = tuple(spec.symbols)
        verdict = verify_triple(pre, prog, post, symbols=symbols)
        assert len(verdict.paths) == n_paths
        for p in verdict.paths:
            assert p.models == tuple(satisfying_assignments(p.condition, symbols))
        status, witness = reference_judge(verdict.paths, post, symbols)
        assert verdict.status == status
        assert verdict.witness == witness

    def test_concretize_rebuilds_only_symbolic_blocks(self):
        with open("samples/wallet.lls", encoding="utf-8") as fh:
            source = fh.read()
        with open("samples/no_in_time.spec", encoding="utf-8") as fh:
            pre, _prog, _post, _spec = spec_triple(source, fh.read())
        sigma = pre(None)[0]
        asg = {"privilegeOpen": 3, "privilegeClose": 5, "now": 1}
        out = concretize(sigma, asg)
        indices = symbolic_blocks(sigma)
        assert len(indices) == 3
        assert out.blocks == full_concretize(sigma, asg).blocks
        assert symbolic_blocks(out) == ()
        for i, (a, b) in enumerate(zip(out.blocks, sigma.blocks)):
            assert (a is b) == (i not in indices)
