"""Laws of the dispatch loop, as properties over generated programs.

*Step composition:* ``n`` calls of ``engine.step`` reach what one ``drive``
with gas ``n`` reaches, notes included, for every ``n`` up to the
program's end. *Gas additivity:* ``drive`` with gas ``g1``, resumed from
its ``Run`` with gas ``g2`` when ``g1`` ran out, ends as one ``drive`` with
gas ``g1 + g2``.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from minisol import memory as gm
from minisol.engine import PathState, step
from minisol.proggen import generate_program
from minisol.stdlib import fresh_memory
from minisol.stmts import BUDGET, ERROR, FINISHED, drive
from minisol.values import Env

K = 200
GLOBAL = gm.reserved_addresses(100)["0xglobal"]
MAX_STEPS = 150


def start(seed: int, length: int):
    sigma = fresh_memory(100)
    return sigma, generate_program(seed, length), sigma


def note_of(run) -> str:
    """The note of the step that made the ``run``'s last dispatch."""
    if run.stop == ERROR:
        return f"stuck: {run.error}"
    return "throw" if run.halted else ""


@given(st.integers(0, 1 << 30), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_n_steps_equal_one_drive_with_gas_n(seed, length):
    sigma, prog, init = start(seed, length)
    ps = PathState(sigma, Env(MAX_STEPS, GLOBAL), (), tuple(prog), init)
    for n in range(1, MAX_STEPS + 1):
        ps = step(ps, K)
        run = drive(K, sigma, Env(n, GLOBAL), init, prog)
        spent = MAX_STEPS - ps.env.gas
        assert (ps.sigma, ps.env.domain, ps.remaining) == (run.sigma, run.env.domain,
                                                           run.remaining), n
        assert spent == n - run.env.gas and ps.note == note_of(run), n
        if run.stop != BUDGET:
            assert run.stop in (FINISHED, ERROR)
            break


@given(st.integers(0, 1 << 30), st.integers(1, 6), st.integers(0, 40), st.integers(0, 40))
@settings(max_examples=80, deadline=None)
def test_drive_resumed_with_more_gas_equals_one_drive_with_the_sum(seed, length, g1, g2):
    sigma, prog, init = start(seed, length)
    first = drive(K, sigma, Env(g1, GLOBAL), init, prog)
    if first.stop == BUDGET:
        later = drive(K, first.sigma, Env(g2, first.env.domain), init, first.remaining)
    else:  # stopped for another reason: more gas is left over, unspent
        later = replace(first, env=Env(first.env.gas + g2, first.env.domain))
    whole = drive(K, sigma, Env(g1 + g2, GLOBAL), init, prog)
    assert (later.stop, later.sigma, later.env, later.remaining, later.error, later.halted) \
        == (whole.stop, whole.sigma, whole.env, whole.remaining, whole.error, whole.halted)
