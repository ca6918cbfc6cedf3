"""Symbolic and concrete execution agree.

For a generated program, the declarations run concretely; then up to two
integer blocks and one boolean block take symbolic payloads over tiny
domains, and ``explore`` runs the body. For every path and every model
of it, the concretized terminal state is the state the concrete dispatch
loop reaches on the world that model describes, and both stop for the
same reason. The paths come out in path-condition order. Programs draw no division: a symbolic divisor has no
``d != 0`` fork yet.
"""

import random
from dataclasses import replace
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from minisol import memory as gm
from minisol.engine import (
    PathState,
    Post,
    SymbolicValue,
    assignments,
    concretize,
    equals,
    explore,
    interpret,
    verify_triple,
)
from minisol.proggen import ProgramGen, generate_program
from minisol.stdlib import fresh_memory
from minisol.stmts import BUDGET, ExecContext, drive
from minisol.symbolic import SymVar
from minisol.values import initial_env

K = 200
_GEN = ProgramGen(random.Random(0))
INTS, BOOLS = _GEN.int_vars, _GEN.bool_vars
N_DECLS = len(_GEN.declarations())


@st.composite
def cases(draw):
    """(declared world, body, symbols by address, gas, post block, post value)."""
    prog = generate_program(draw(st.integers(0, 1 << 30)), draw(st.integers(1, 8)),
                            allow_div=False)
    sigma = fresh_memory(64)
    declared = interpret(K, sigma, initial_env(N_DECLS, sigma.addr_of("0xglobal")),
                         prog[:N_DECLS])
    syms = [(a, SymbolicValue(f"s{a.index}", "int", 64, True, -2, 2))
            for a in draw(st.lists(st.sampled_from(INTS), min_size=1, max_size=2, unique=True))]
    bool_block = draw(st.sampled_from([None, *BOOLS]))
    if bool_block is not None:
        syms.append((bool_block, SymbolicValue(f"s{bool_block.index}", "bool")))
    target = draw(st.sampled_from(INTS + BOOLS))
    value = draw(st.booleans() if target in BOOLS else st.integers(-2, 2))
    return declared, tuple(prog[N_DECLS:]), syms, draw(st.integers(1, 100)), target, value


def world(declared, syms, gas, asg):
    """The declared world with each symbol's block holding its symbol, or
    its value under ``asg``."""
    sigma = declared
    for addr, sym in syms:
        block = sigma.blocks[addr.index]
        v = SymVar(sym.name) if asg is None else asg[sym.name]
        payload = (gm.BoolPayload(v) if sym.kind == "bool"
                   else gm.IntPayload(v, sym.width, sym.signed))
        sigma = gm.write(sigma, addr, replace(block, payload=payload), "dir")
    return sigma, initial_env(gas, sigma.addr_of("0xglobal")), ExecContext(sigma_init=sigma)


def key(asg, symbols):
    return tuple(asg[s.name] for s in symbols)


@given(cases())
@settings(max_examples=200, deadline=None)
def test_paths_agree_with_concrete_runs(case):
    declared, body, syms, gas, target, value = case
    symbols = [s for _a, s in syms]
    pre = partial(world, declared, syms, gas)
    sigma, env, ctx = pre(None)
    paths = explore(K, PathState(sigma, env, (), body, ctx,
                                 models=tuple(assignments(symbols))))

    # Paths come out in path-condition order, with no sort.
    texts = [[str(c) for c in p.condition] for p in paths]
    assert texts == sorted(texts)

    # The paths' models partition the domain product.
    seen = sorted(key(m, symbols) for p in paths for m in p.models)
    assert seen == sorted(key(m, symbols) for m in assignments(symbols))

    for p in paths:
        for asg in p.models:
            sigma_c, env_c, ctx_c = pre(asg)
            run = drive(K, sigma_c, env_c, ctx_c, body)
            final = run.final(ctx_c)  # what interpret returns
            assert (run.stop == BUDGET) == (p.note == "exhausted"), (p.note, run.stop)
            assert run.env.gas == p.env.gas
            if p.sigma is None:
                assert final is None, p.note
            else:
                assert final is not None, run.stop
                assert concretize(p.sigma, asg).blocks == final.blocks

    # A refutation's witness replays to the same verdict.
    verdict = verify_triple(pre, body, Post(partial(equals, target.index, value)),
                            symbols=symbols, K=K)
    witness = verdict.witness or {}
    assert "_replay_mismatch" not in witness and "_replay_error" not in witness, verdict
