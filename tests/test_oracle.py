"""Differential checking of the relational oracle against the
executable interpreter."""

from minisol import memory as gm
from minisol.engine import interpret
from minisol.memory import Address, BoolPayload, IntPayload
from minisol.oracle import (
    check_simulation,
    default_corpus,
    in_core_subset,
    relational_eval,
    run_report,
)
from minisol.stdlib import fresh_memory
from minisol.syntax import (
    Assign,
    Ebop as Ebop_,
    Econst,
    Evar,
    If,
    LoopWhile as LoopWhile_,
    Snil,
    Throw,
    Tuint,
    Var,
    Vbool,
    Vint,
)
from minisol.values import initial_env

X = Address(0)


def world(gas=500, size=64):
    sigma = fresh_memory(size)
    env = initial_env(gas, sigma.addr_of("0xglobal"))
    return sigma, env


class TestRelationalEval:
    def test_assign_agrees_with_direct_write_oracle(self):
        sigma, env = world()
        prog = [Var("public", Evar(X, Tuint())),
                Assign(Evar(X, Tuint()), Econst(Vint(5)))]
        rel = relational_eval(sigma, env, prog)
        assert rel is not None
        final, _trace = rel
        # shared ground truth: a direct write through the raw store
        assert final.blocks[X.index].payload == IntPayload(5, 64, False)
        exe = interpret(100, sigma, env, prog)
        assert [b.payload for b in exe.blocks] == [b.payload for b in final.blocks]

    def test_skip_single_entry_trace(self):
        sigma, env = world()
        final, trace = relational_eval(sigma, env, [Snil()])
        assert final.blocks == sigma.blocks
        assert len(trace.steps) == 1
        assert isinstance(trace.steps[0][0], Snil)

    def test_if_false_trace_shows_else_steps(self):
        sigma, env = world()
        prog = [Var("public", Evar(X, Tuint())),
                If(Econst(Vbool(False)),
                   (Assign(Evar(X, Tuint()), Econst(Vint(1))),),
                   (Assign(Evar(X, Tuint()), Econst(Vint(2))), Snil()))]
        final, trace = relational_eval(sigma, env, prog)
        assert final.blocks[X.index].payload == IntPayload(2, 64, False)
        kinds = [type(s).__name__ for s, _sig in trace.steps]
        assert kinds == ["Var", "If", "Assign", "Snil"]

    def test_throw_restores_snapshot(self):
        sigma, env = world()
        names = gm.reserved_addresses(sigma.size)
        prog = [Var("public", Evar(X, Tuint())),
                Assign(Evar(X, Tuint()), Econst(Vint(9))),
                Throw()]
        final, _ = relational_eval(sigma, env, prog)
        assert final.blocks[X.index] == sigma.blocks[X.index]
        assert final.blocks[names["0xthrow"].index].payload == BoolPayload(True)

    def test_failure_cases_absent(self):
        sigma, env = world()
        # assignment into an undeclared block
        assert relational_eval(sigma, env,
                               [Assign(Evar(X, Tuint()), Econst(Vint(1)))]) is None


class TestCheckSimulation:
    def test_empty_corpus_empty_report(self):
        report = check_simulation([], lambda i: world())
        assert report.total == 0
        assert report.ok

    def test_random_corpus_no_divergence(self):
        report = run_report(count=100)
        assert report.total == 100
        assert report.ok, report.divergences

    def test_out_of_subset_program_reported(self):
        from minisol.syntax import Efun, FunCall, Tfid
        prog = [FunCall(Efun(Address(9), Tfid(Address(9))), ())]
        report = check_simulation([prog], lambda i: world())
        assert not report.ok
        assert "core subset" in report.divergences[0].detail

    def test_broken_executable_if_detected_at_the_if_step(self):
        # Mutation fixture: an interpreter whose If takes the wrong arm.
        def broken_interpret(K, sigma, env, prog):
            def flip(stmts):
                out = []
                for s in stmts:
                    if isinstance(s, If):
                        out.append(If(s.cond, tuple(flip(s.orelse)),
                                      tuple(flip(s.then))))
                    else:
                        out.append(s)
                return out
            return interpret(K, sigma, env, flip(list(prog)))

        prog = [Var("public", Evar(X, Tuint())),
                Assign(Evar(X, Tuint()), Econst(Vint(0))),
                If(Econst(Vbool(False)),
                   (Assign(Evar(X, Tuint()), Econst(Vint(1))),),
                   (Assign(Evar(X, Tuint()), Econst(Vint(2))),))]
        report = check_simulation([prog], lambda i: world(),
                                  executable=broken_interpret)
        assert not report.ok
        # The If dispatch itself leaves memory untouched; the flipped
        # branch surfaces at the arm statement right after it (index 3).
        assert report.divergences[0].first_step == 3

    def test_corpus_is_seeded_and_stable(self):
        a = default_corpus(10, seed=5)
        b = default_corpus(10, seed=5)
        assert a == b
        assert all(in_core_subset(p) for p in a)


class TestGasAgreement:
    def test_gas_exhaustion_agrees_between_semantics(self):
        # A loop cut off mid-flight must leave both semantics at the
        # same state for any budget.
        body = [Var("public", Evar(X, Tuint())),
                Assign(Evar(X, Tuint()), Econst(Vint(0))),
                LoopWhile_(Econst(Vbool(True)),
                           (Assign(Evar(X, Tuint()),
                                   Ebop_("+", Evar(X, Tuint()), Econst(Vint(1)))),))]
        for gas in (1, 2, 3, 7, 20):
            sigma, _env = world()
            env = initial_env(gas, sigma.addr_of("0xglobal"))
            rel = relational_eval(sigma, env, body)
            exe = interpret(200, sigma, env, body)
            assert rel is not None and exe is not None
            assert [b.payload for b in rel[0].blocks] == \
                [b.payload for b in exe.blocks], f"gas {gas}"
