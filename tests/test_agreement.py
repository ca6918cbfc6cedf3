"""Symbolic and concrete execution agree.

For a generated program, the declarations run concretely; then up to two
integer blocks and one boolean block take symbolic payloads over tiny
domains, and ``explore`` runs the body. The symbols are ``sym`` lines of
a spec, placed by ``runner.build_world``, which types each one by the
block it names. For every path and every model of it, the concretized
terminal state is the state the concrete dispatch loop reaches on the
world that ``--arg`` writes of that model build, and both stop for the
same reason. The paths come out in path-condition order.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from minisol.binder import Binder, BoundProgram
from minisol.engine import (
    PathState,
    assignments,
    concretize,
    explore,
    verify_triple,
)
from minisol.memory import Address
from minisol.proggen import BOOL_T, INT_T, ProgramGen, generate_program
from minisol.runner import build_world, compile_posts, make_pre
from minisol.specfile import parse_spec
from minisol.stmts import BUDGET, drive
from minisol.syntax import Evar, Tuint, Var
from minisol.values import BlockInfo

K = 200
MEM = 64
_GEN = ProgramGen(random.Random(0))
INTS, BOOLS = _GEN.int_vars, _GEN.bool_vars
N_DECLS = len(_GEN.declarations())
NAMES = {a: f"v{a.index}" for a in INTS + BOOLS}
NOW = Address(len(NAMES))  # the block timestamp that build_world writes


def bound_program(decls) -> BoundProgram:
    """The generated declarations, plus the timestamp block, as a bound
    program whose binder names the variable at index i ``v<i>``."""
    binder = Binder(MEM)
    binder.globals = {NAMES[a]: (a, INT_T if a in INTS else BOOL_T) for a in NAMES}
    binder.globals["now"] = (NOW, Tuint())
    bindings = {name: addr for name, (addr, _t) in binder.globals.items()}
    return BoundProgram(list(decls) + [Var("public", Evar(NOW, Tuint()))], bindings,
                        NOW.index + 1, MEM, {}, binder)


@st.composite
def cases(draw):
    """(bound declarations, body, spec, gas): the spec declares the symbols
    and posts that one variable holds one value."""
    prog = generate_program(draw(st.integers(0, 1 << 30)), draw(st.integers(1, 8)))
    ints = draw(st.lists(st.sampled_from(INTS), min_size=1, max_size=2, unique=True))
    lines = [f"sym {NAMES[a]} : int -2..2" for a in ints]
    bool_block = draw(st.sampled_from([None, *BOOLS]))
    if bool_block is not None:
        lines.append(f"sym {NAMES[bool_block]} : bool")
    target = draw(st.sampled_from(INTS + BOOLS))
    value = draw(st.booleans() if target in BOOLS else st.integers(-2, 2))
    lines.append(f"post {NAMES[target]} == {str(value).lower()}")
    spec = parse_spec("\n".join(lines) + "\n")
    return bound_program(prog[:N_DECLS]), tuple(prog[N_DECLS:]), spec, draw(st.integers(1, 100))


def key(asg, symbols):
    return tuple(asg[s.name] for s in symbols)


@given(cases())
@settings(max_examples=200, deadline=None)
def test_paths_agree_with_concrete_runs(case):
    bound, body, spec, gas = case
    symbols = spec.symbols
    pre = make_pre(bound, gas, BlockInfo(), symbols=symbols)
    sigma, env = pre(None)
    paths = explore(K, PathState(sigma, env, (), body, sigma,
                                 models=tuple(assignments(symbols))))

    # Paths come out in path-condition order, with no sort.
    texts = [[str(c) for c in p.condition] for p in paths]
    assert texts == sorted(texts)

    # The paths' models partition the domain product.
    seen = sorted(key(m, symbols) for p in paths for m in p.models)
    assert seen == sorted(key(m, symbols) for m in assignments(symbols))

    for p in paths:
        for asg in p.models:
            world = build_world(bound, gas, BlockInfo(), arg_writes=sorted(asg.items()))
            run = drive(K, world.sigma, world.env, world.sigma, body)
            final = run.final()  # what interpret returns
            assert (run.stop == BUDGET) == (p.note == "exhausted"), (p.note, run.stop)
            assert run.env.gas == p.env.gas
            if p.sigma is None:
                assert final is None, p.note
            else:
                assert final is not None, run.stop
                assert concretize(p.sigma, asg).blocks == final.blocks

    # A refutation's witness replays to the same verdict.
    verdict = verify_triple(pre, body, compile_posts(bound, spec.posts), symbols=symbols, K=K)
    witness = verdict.witness or {}
    assert "_replay_mismatch" not in witness and "_replay_error" not in witness, verdict
