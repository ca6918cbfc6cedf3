"""Block store: initialization, validated access, allocation, dumps."""

import ast
import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minisol import memory as gm
from minisol.memory import (
    Address,
    BoolPayload,
    IntPayload,
    MemoryConfigError,
    MemoryValue,
    StructTypeInfo,
    Undef,
)
from minisol.stdlib import fresh_memory
from minisol.stmts import _group_run, init_array
from minisol.syntax import Tarray, Tuint, array_dims
from minisol.values import initial_env

ROOT = Path(__file__).resolve().parents[1]

def mv(payload, domain=Address(0), access="public"):
    return MemoryValue(payload, domain=domain, access=access, occupancy=gm.OCCUPY)


class TestInitMem:
    def test_default_size_is_100_blocks(self, sigma):
        assert sigma.size == 100

    def test_user_blocks_start_free_and_undef(self, sigma):
        for block in sigma.blocks[: sigma.size - gm.RESERVED_BLOCKS]:
            assert block.occupancy == gm.FREE
            assert isinstance(block.payload, Undef)

    def test_stdlib_address_struct(self, sigma, names):
        block = sigma.blocks[names["0xaddress"].index]
        assert isinstance(block.payload, StructTypeInfo)
        assert [n for n, _t in block.payload.members] == \
            ["addr", "balance", "send", "gas"]

    def test_flag_blocks_initialized_false(self, sigma, names):
        for flag in ("0xthrow", "0xmodifier"):
            block = sigma.blocks[names[flag].index]
            assert block.payload == BoolPayload(False)
            assert block.occupancy == gm.OCCUPY

    def test_too_small_size_is_config_error(self):
        with pytest.raises(MemoryConfigError):
            gm.init_mem(gm.RESERVED_BLOCKS)

    def test_empty_stdlib_leaves_user_blocks_free(self):
        sigma = gm.init_mem(100)
        assert all(b.occupancy == gm.FREE for b in sigma.blocks[:90])
        # only the two flags and the global block: the library is not stored
        assert sum(b.occupancy == gm.OCCUPY for b in sigma.blocks) == 3


class TestReservedNames:
    def test_a_state_is_its_blocks_and_its_floor(self):
        assert [f.name for f in dataclasses.fields(gm.MemoryState)] == ["blocks", "alloc_floor"]

    @pytest.mark.parametrize("size", [11, 100, 10_000])
    def test_addr_of_follows_from_the_size(self, size):
        sigma, names = fresh_memory(size), gm.reserved_addresses(size)
        for name in gm.RESERVED_LAYOUT:
            assert sigma.addr_of(name) == names[name], name


class TestReadWrite:
    def test_read_after_write_dir(self, sigma):
        value = mv(IntPayload(7))
        out = gm.write(sigma, Address(3), value, "dir")
        assert gm.read(out, Address(3), "dir") == value

    def test_read_finds_every_block_of_three_mids(self):
        values = [mv(IntPayload(i)) for i in range(3000)]
        sigma = gm.MemoryState(values)
        assert [gm.read(sigma, Address(i), "dir") for i in range(3000)] == values
        assert [gm.read(sigma, Address(i), "chck") for i in range(3000)] == values
        assert gm.read(sigma, Address(3000), "dir") is None

    def test_chck_read_of_free_block_absent(self, sigma, env):
        assert gm.read(sigma, Address(5), "chck", env) is None

    def test_chck_read_of_stdlib_struct(self, sigma, names, env):
        block = gm.read(sigma, names["0xaddress"], "chck", env)
        assert isinstance(block.payload, StructTypeInfo)

    def test_out_of_range_absent(self, sigma):
        assert gm.read(sigma, Address(1000), "dir") is None
        assert gm.write(sigma, Address(1000), mv(IntPayload(1)), "dir") is None

    def test_write_returns_new_state(self, sigma):
        out = gm.write(sigma, Address(0), mv(IntPayload(1)), "dir")
        assert sigma.blocks[0].occupancy == gm.FREE
        assert out.blocks[0].payload == IntPayload(1)

    def test_chck_write_to_free_block_absent(self, sigma, env):
        assert gm.write(sigma, Address(0), mv(IntPayload(1)), "chck", env) is None

    # Enumerate access x domain against the validation predicate: a chck
    # access succeeds exactly when the block is occupied and either
    # public or owned by the caller's domain.
    @pytest.mark.parametrize("access", ["public", "private", "internal"])
    @pytest.mark.parametrize("same_domain", [True, False])
    def test_validation_predicate_enumeration(self, sigma, access, same_domain):
        owner = Address(50)
        caller = Address(50) if same_domain else Address(51)
        env = initial_env(10, caller)
        seeded = gm.write(sigma, Address(4), mv(IntPayload(9), owner, access), "dir")
        expected = access == "public" or same_domain
        read_ok = gm.read(seeded, Address(4), "chck", env) is not None
        write_ok = gm.write(seeded, Address(4), mv(IntPayload(1)), "chck", env) is not None
        assert read_ok is expected
        assert write_ok is expected

    def test_chck_success_implies_dir_same_value(self, sigma, env):
        seeded = gm.write(sigma, Address(4), mv(IntPayload(9)), "dir")
        via_chck = gm.read(seeded, Address(4), "chck", env)
        assert via_chck == gm.read(seeded, Address(4), "dir")

    def test_chck_write_preserves_block_ownership(self, sigma):
        owner = Address(50)
        other = initial_env(10, Address(51))
        seeded = gm.write(sigma, Address(4), mv(IntPayload(9), owner, "public"), "dir")
        out = gm.write(seeded, Address(4), mv(IntPayload(1), Address(51)), "chck", other)
        assert out.blocks[4].domain == owner
        assert out.blocks[4].payload == IntPayload(1)

    @pytest.mark.parametrize("domain, access", [
        (Address(51), "public"), (Address(50), "private"), (Address(51), "internal")])
    def test_chck_write_retags_a_value_with_other_tags(self, sigma, domain, access):
        owner = initial_env(10, Address(50))
        seeded = gm.write(sigma, Address(4), mv(IntPayload(9), Address(50), "public"), "dir")
        value = MemoryValue(IntPayload(1), domain, access, gm.OCCUPY)
        stored = gm.write(seeded, Address(4), value, "chck", owner).blocks[4]
        assert stored == MemoryValue(IntPayload(1), Address(50), "public", gm.OCCUPY)

    @pytest.mark.parametrize("same_object", [True, False])
    def test_chck_write_stores_a_value_with_the_block_tags_as_it_is(self, sigma,
                                                                     same_object):
        owner = initial_env(10, Address(50))
        seeded = gm.write(sigma, Address(4), mv(IntPayload(9), Address(50), "private"), "dir")
        domain = seeded.blocks[4].domain if same_object else Address(50)
        value = MemoryValue(IntPayload(1), domain, "private", gm.OCCUPY)
        assert gm.write(seeded, Address(4), value, "chck", owner).blocks[4] is value

    def test_throw_flag_write(self, sigma, names):
        out = gm.write(sigma, names["0xthrow"], mv(BoolPayload(True)), "dir")
        assert out.blocks[names["0xthrow"].index].payload == BoolPayload(True)

    @pytest.mark.parametrize("size", [1023, 1024, 1025, 2049])
    def test_checked_reader_equals_a_checked_read(self, size):
        # Every index, in range or not, across mid boundaries, over free,
        # public, own-domain private and foreign private blocks.
        own, foreign = Address(7), Address(8)
        kinds = (gm.free_value(own), mv(IntPayload(1), foreign),
                 mv(IntPayload(2), own, "private"), mv(IntPayload(3), foreign, "private"))
        sigma = gm.MemoryState([kinds[i % 4] for i in range(size)])
        for env in (initial_env(10, own), None):
            for i in range(-1, size + 1):
                assert gm.checked_reader(i)(1, sigma, env) is \
                    gm.read(sigma, Address(i), "chck", env), (i, env)


@given(st.integers(0, 99), st.integers(0, 99), st.integers(-50, 50))
@settings(max_examples=60, deadline=None)
def test_frame_property(a, b, value):
    sigma = fresh_memory(100)
    written = gm.write(sigma, Address(a), mv(IntPayload(value)), "dir")
    assert gm.read(written, Address(a), "dir").payload == IntPayload(value)
    if b != a:
        assert gm.read(written, Address(b), "dir") == gm.read(sigma, Address(b), "dir")
    assert written.size == sigma.size


class TestAddressOffset:
    def test_worked_offset_example(self):
        assert gm.address_offset(6, Address(0), 100) == Address(6)

    def test_identity(self):
        assert gm.address_offset(0, Address(42), 100) == Address(42)

    def test_underflow_absent(self):
        assert gm.address_offset(-1, Address(0), 100) is None

    def test_overflow_absent(self):
        assert gm.address_offset(1, Address(99), 100) is None


def brute_force_first_fit(sigma, n):
    """Independent scan: the lowest base of any n-long free run."""
    free = [b.occupancy == gm.FREE for b in sigma.blocks]
    for base in range(sigma.alloc_floor, sigma.size - n + 1):
        if all(free[base:base + n]):
            return base
    return None


class TestAllocate:
    def test_allocate_20_from_fresh_user_region(self, sigma):
        base, out = gm.allocate(sigma, 20)
        assert base == Address(0)
        assert all(b.occupancy == gm.OCCUPY for b in out.blocks[0:20])

    def test_allocate_on_full_memory_absent(self, sigma):
        full = sigma
        while True:
            got = gm.allocate(full, 1)
            if got is None:
                break
            _, full = got
        assert gm.allocate(full, 1) is None

    def test_first_fit_prefers_lowest_index_after_free(self, sigma):
        _, s1 = gm.allocate(sigma, 5)
        s2 = gm.write(s1, Address(2), gm.free_value(), "dir")
        expected = brute_force_first_fit(s2, 1)
        got, _ = gm.allocate(s2, 1)
        assert got.index == expected == 2

    @given(st.lists(st.integers(1, 6), min_size=0, max_size=8),
           st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_first_fit_matches_brute_force(self, sizes, want):
        sigma = fresh_memory(60)
        for n in sizes:
            got = gm.allocate(sigma, n)
            if got is None:
                break
            _, sigma = got
        # poke a few holes deterministically
        for idx in range(0, 40, 7):
            sigma = gm.write(sigma, Address(idx), gm.free_value(), "dir")
        expected = brute_force_first_fit(sigma, want)
        got = gm.allocate(sigma, want)
        if expected is None:
            assert got is None
        else:
            assert got[0].index == expected

    def test_allocation_respects_floor(self, sigma):
        import dataclasses
        raised = dataclasses.replace(sigma, alloc_floor=10)
        base, _ = gm.allocate(raised, 3)
        assert base.index == 10


class TestDump:
    def test_shape_and_stability(self, sigma):
        lines = gm.dump(sigma).splitlines()
        assert len(lines) == 100
        first = lines[0].split("\t")
        assert first[0] == "0"
        assert first[1] in (gm.FREE, gm.OCCUPY)
        assert first[2] in gm.ACCESS_KINDS
        assert gm.dump(sigma) == gm.dump(sigma)

    def test_payload_renderings(self):
        assert gm.render_payload(Undef()) == "undef"
        assert gm.render_payload(BoolPayload(True)) == "bool:true"
        assert gm.render_payload(BoolPayload(None)) == "bool:?"
        assert gm.render_payload(IntPayload(19, 64, True)) == "int:i64:19"
        assert gm.render_payload(IntPayload(7, 64, False)) == "int:u64:7"


# ---------------------------------------------------------------------------
# Model test: the block vector against a flat list of blocks

MODEL_SIZES = (11, 64, 65, 100, 1000, 1023, 1024, 1025)  # 1024 blocks fill one mid
MODEL_ARRAYS = (
    Tarray(3, Tuint()),
    Tarray(2, Tarray(3, Tuint())),
    Tarray(2, Tarray(3, Tarray(2, Tuint()))),
    Tarray(70, Tuint()),  # wider than two leaves
)


def _model_ops(size):
    index = st.one_of(st.integers(-1, size),  # -1 and size are out of range
                      st.sampled_from([0, 31, 32, 63, 64, 1023, 1024, size - 1]))
    domain = st.sampled_from([0, 1, size - 1 - gm.RESERVED_LAYOUT.index("0xglobal")])
    value = st.builds(lambda v, d, a: mv(IntPayload(v), Address(d), a),
                      st.integers(-3, 3), domain, st.sampled_from(gm.ACCESS_KINDS))
    return st.one_of(
        st.tuples(st.just("dir"), index, value),
        st.tuples(st.just("chck"), index, value, domain),
        st.tuples(st.just("allocate"), st.integers(0, 70)),
        st.tuples(st.just("allocate_at"), index, st.integers(0, 70)),
        st.tuples(st.just("dir"), index, st.builds(gm.free_value, domain.map(Address))),
        st.tuples(st.just("init_array"), index, st.sampled_from(MODEL_ARRAYS), domain),
    )


def _occupied(b):
    return MemoryValue(Undef(), b.domain, b.access, gm.OCCUPY)


def _model_step(model, op):
    """Apply ``op`` to the flat list ``model`` in place.

    Returns the indices it may change, or None where the store refuses.
    """
    size = len(model)
    kind, *args = op
    if kind in ("dir", "chck"):
        i, value = args[0], args[1]
        if not 0 <= i < size:
            return None
        if kind == "chck":
            old = model[i]
            visible = old.access == gm.PUBLIC or old.domain == Address(args[2])
            if old.occupancy != gm.OCCUPY or not visible:
                return None
            value = MemoryValue(value.payload, old.domain, old.access, value.occupancy)
        model[i] = value
        return range(i, i + 1)
    if kind == "allocate":
        n = args[0]
        base = next((b for b in range(size - n + 1)
                     if all(m.occupancy == gm.FREE for m in model[b:b + n])), None)
        if n <= 0 or base is None:
            return None
    elif kind == "allocate_at":
        base, n = args
        if (n <= 0 or not 0 <= base < size or base + n > size
                or any(m.occupancy != gm.FREE for m in model[base:base + n])):
            return None
    else:  # init_array: the run the statement layer lays down, spliced in
        base, arr_type, dom = args
        dims, _final = array_dims(arr_type)
        run = _group_run(tuple(dims), Address(dom)) * dims[0]
        if base < 0 or base + len(run) > size:
            return None
        model[base:base + len(run)] = run
        return range(base, base + len(run))
    model[base:base + n] = [_occupied(b) for b in model[base:base + n]]
    return range(base, base + n)


def _store_step(sigma, op):
    kind, *args = op
    if kind in ("dir", "chck"):
        env = initial_env(10, Address(args[2])) if kind == "chck" else None
        return gm.write(sigma, Address(args[0]), args[1], kind, env)
    if kind == "allocate":
        got = gm.allocate(sigma, args[0])
        return None if got is None else got[1]
    if kind == "allocate_at":
        return gm.allocate_at(sigma, Address(args[0]), args[1])
    base, arr_type, dom = args
    return init_array(10_000, sigma, Address(base), arr_type,
                      initial_env(10, Address(dom)))


def _flat_dump(model):
    return "\n".join(f"{i}\t{b.occupancy}\t{b.access}\t{b.domain.index}\t"
                     f"{gm.render_payload(b.payload)}" for i, b in enumerate(model))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_block_vector_matches_flat_model(data):
    size = data.draw(st.sampled_from(MODEL_SIZES))
    sigma = fresh_memory(size)
    model = list(sigma.blocks)
    for op in data.draw(st.lists(_model_ops(size), max_size=25)):
        touched = _model_step(model, op)
        out = _store_step(sigma, op)
        assert (out is None) == (touched is None), op
        if out is None:
            continue
        assert tuple(out.blocks) == tuple(model), op
        mids, leaves = out.blocks.root, _leaves(out.blocks)
        assert [len(mid) for mid in mids[:-1]] == [gm.WIDTH] * (len(mids) - 1)
        assert [len(leaf) for leaf in leaves[:-1]] == [gm.WIDTH] * (len(leaves) - 1)
        assert sum(map(len, leaves)) == len(out.blocks) == size
        # structural sharing: a mid or leaf the operation did not touch is the old object
        for shared, width in zip(_shared(sigma.blocks, out.blocks), (gm.WIDTH ** 2, gm.WIDTH)):
            hit = {i // width for i in touched}
            assert all(same for j, same in enumerate(shared) if j not in hit), (op, width)
        sigma = out
    assert gm.dump(sigma) == _flat_dump(model)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_dump_by_runs_matches_the_flat_rendering(data):
    # Each write lays one block object over a run that may start and end
    # anywhere, so whole leaves of it render as a run. A twin is equal to
    # the run's block but another object, and it keeps its leaf on the
    # per-block path: an IntPayload of True equals one of 1 and renders
    # "true", not "1".
    size = data.draw(st.sampled_from((99, 100, 101, 127, 128, 10_000, 20_000)))
    sigma = fresh_memory(size)
    blocks, model = sigma.blocks, list(sigma.blocks)
    for _ in range(data.draw(st.integers(0, 4))):
        start = data.draw(st.integers(0, size - 1))
        stop = data.draw(st.integers(start + 1, size))
        block = mv(IntPayload(data.draw(st.integers(0, 2))))
        blocks = blocks.splice(start, [block] * (stop - start))
        model[start:stop] = [block] * (stop - start)
        if data.draw(st.booleans()):
            i = data.draw(st.integers(start, stop - 1))
            twin = mv(IntPayload(True)) if block.payload.value == 1 else dataclasses.replace(block)
            assert twin == block and twin is not block
            blocks, model[i] = blocks.set(i, twin), twin
    assert gm.dump(gm.MemoryState(blocks)) == _flat_dump(model)


def test_dump_of_a_run_that_starts_on_a_whole_hundred():
    # A written block at 1599 ends a leaf, so the free run after it starts at
    # 1600, on a whole hundred that is also a leaf boundary.
    sigma = gm.write(fresh_memory(10_000), Address(1599), mv(IntPayload(1)), "dir")
    assert gm.dump(sigma) == _flat_dump(list(sigma.blocks))


class TestBlockVector:
    def test_sequence_protocol_matches_tuple(self):
        values = tuple(mv(IntPayload(i)) for i in range(150))
        vec = gm.BlockVector.of(values)
        assert len(vec) == 150
        assert tuple(vec) == values
        assert vec[0] == values[0] and vec[149] == values[149] and vec[-1] == values[-1]
        for s in (slice(60, 70), slice(None, 5), slice(140, None), slice(None, None, -7),
                  slice(10, 3), slice(-5, None)):
            assert vec[s] == values[s], s
        with pytest.raises(IndexError):
            vec[150]
        with pytest.raises(IndexError):
            vec[-151]

    def test_slices_near_the_end_match_tuple_slices(self):
        values = tuple(mv(IntPayload(i)) for i in range(10_000))
        vec = gm.BlockVector.of(values)
        for s in (slice(9_990, 9_999), slice(9_998, None), slice(-3, None), slice(9_215, 9_250),
                  slice(9_216, None, 7), slice(1_023, 1_025), slice(10_000, None),
                  slice(9_999, 9_000), slice(9_999, None, -3)):
            assert vec[s] == values[s], s

    def test_a_slice_reads_no_node_before_its_start(self):
        # The mids before the start's mid and the leaves before the start's
        # leaf raise when read, so the slice must start its walk at its node.
        class Unread(list):
            def __getitem__(self, _key):
                raise AssertionError("a node before the slice was read")

            def __iter__(self):
                return self[0]
        values = [mv(IntPayload(i)) for i in range(10_000)]
        vec = gm.BlockVector.of(values)
        root = [Unread(mid) for mid in vec.root[:-1]] + [vec.root[-1].copy()]
        root[-1][:-2] = [Unread(leaf) for leaf in root[-1][:-2]]
        walled = gm.BlockVector(root, len(values))
        start = len(values) - 40  # in the last leaf but one
        assert walled[start:] == tuple(values[start:])
        assert walled[start + 3:start + 30:4] == tuple(values[start + 3:start + 30:4])

    def test_plain_tuple_is_coerced(self, sigma):
        rebuilt = gm.MemoryState(tuple(sigma.blocks), sigma.alloc_floor)
        assert isinstance(rebuilt.blocks, gm.BlockVector)
        assert rebuilt == sigma
        assert rebuilt.blocks.root == sigma.blocks.root  # the same three levels, node by node

    def test_write_shares_every_other_leaf(self):
        sigma = fresh_memory(2_000)
        out = gm.write(sigma, Address(1_100), mv(IntPayload(1)), "dir")
        assert out.blocks.root is not sigma.blocks.root
        assert _shared(sigma.blocks, out.blocks) == (
            [j != 1_100 // gm.WIDTH ** 2 for j in range(2)],
            [j != 1_100 // gm.WIDTH for j in range(2_000 // gm.WIDTH + 1)])

    @pytest.mark.parametrize("size", [100, 10_000, 20_000])
    def test_a_write_copies_one_node_per_level(self, size):
        # The cost of a write is the list slots it copies: the root, one mid
        # and one leaf, at most 3 * WIDTH up to WIDTH ** 3 blocks however
        # large the memory is. The root grows by one slot per WIDTH ** 2 blocks.
        sigma = fresh_memory(size)
        for i in (0, size // 2, size - gm.RESERVED_BLOCKS - 1):
            out = gm.write(sigma, Address(i), mv(IntPayload(1)), "dir")
            mids, leaves = _shared(sigma.blocks, out.blocks)
            assert out.blocks.root is not sigma.blocks.root
            assert mids.count(False) == 1 and not mids[i // gm.WIDTH ** 2]
            assert leaves.count(False) == 1 and not leaves[i // gm.WIDTH]
            mid = out.blocks.root[i // gm.WIDTH ** 2]
            copied = len(out.blocks.root) + len(mid) + len(mid[(i // gm.WIDTH) % gm.WIDTH])
            assert copied <= 3 * gm.WIDTH, (i, copied)

    def test_fresh_memory_shares_one_free_block(self):
        sigma = fresh_memory(10_000)
        free = [b for b in sigma.blocks if b.occupancy == gm.FREE]
        assert len(free) > 9_900
        assert all(b is free[0] for b in free)
        # one all-free leaf list and one all-free mid list, besides the last
        # mid and its last leaf, which hold the reserved blocks
        mids = sigma.blocks.root
        assert len({id(leaf) for leaf in _leaves(sigma.blocks)}) == 2
        assert len({id(mid) for mid in mids}) == 2
        assert all(mid is mids[0] for mid in mids[:-1])

    def test_no_operation_changes_a_built_vector(self):
        values = [mv(IntPayload(i)) for i in range(1_100)]
        vec = gm.BlockVector.of(values)
        values[0] = mv(IntPayload(-1))  # the caller's list is not a leaf
        root, mids, leaves = vec.root, list(vec.root), _leaves(vec)
        contents = [leaf.copy() for leaf in leaves]
        vec.set(3, mv(IntPayload(7)))
        vec.set(1_071, mv(IntPayload(9)))
        vec.splice(1_000, [mv(IntPayload(5))] * 60)
        assert vec.root is root and all(new is old for new, old in zip(vec.root, mids))
        assert all(new is old for new, old in zip(_leaves(vec), leaves))
        assert _leaves(vec) == contents
        assert vec[0] == mv(IntPayload(0))

    def test_splice_copies_each_touched_node_once(self):
        # A run across a mid boundary: the root, the two mids and the three
        # leaves it touches are each copied once, and no other node at all.
        copies = Counter()

        class Counted(list):
            def copy(self):
                copies[id(self)] += 1
                return list(self)
        vec = gm.BlockVector.of([mv(IntPayload(i)) for i in range(1_100)])
        root = Counted(Counted(Counted(leaf) for leaf in mid) for mid in vec.root)
        counted = gm.BlockVector(root, len(vec))
        out = counted.splice(1_000, [mv(IntPayload(-i)) for i in range(60)])
        assert out == vec.splice(1_000, [mv(IntPayload(-i)) for i in range(60)])
        touched = {id(root), id(root[0]), id(root[1]), id(root[0][31]), id(root[1][0]),
                   id(root[1][1])}
        assert copies == Counter(dict.fromkeys(touched, 1))
        assert _shared(counted, out) == (
            [False, False], [j not in (31, 32, 33) for j in range(1_100 // gm.WIDTH + 1)])

    def test_each_set_replaces_one_block(self):
        # A later set of the same index wins, and the leaves no set touched
        # are the old objects.
        vec = gm.BlockVector.of([mv(IntPayload(i)) for i in range(1_100)])
        out = vec
        for i, value in [(65, mv(IntPayload(-1))), (66, mv(IntPayload(-2))),
                         (1_050, mv(IntPayload(-4))), (65, mv(IntPayload(-3)))]:
            out = out.set(i, value)
        assert [out[65], out[66], out[1_050]] == [
            mv(IntPayload(-3)), mv(IntPayload(-2)), mv(IntPayload(-4))]
        assert _shared(vec, out) == ([False, False],
                                     [j not in (2, 32) for j in range(1_100 // gm.WIDTH + 1)])

    @pytest.mark.parametrize("start, n", [(0, 150), (10, 5), (60, 10), (63, 1), (64, 64),
                                          (100, 50), (0, 0), (1_000, 50), (0, 1_100)])
    def test_splice_equals_update_and_shares_untouched_leaves(self, start, n):
        # the update here is one ``set`` per block, in order
        vec = gm.BlockVector.of([mv(IntPayload(i)) for i in range(1_100)])
        values = tuple(mv(IntPayload(-i)) for i in range(n))
        out, expected = vec.splice(start, values), vec
        for i, value in zip(range(start, start + n), values):
            expected = expected.set(i, value)
        assert out == expected
        touched = range(start, start + n)
        assert _shared(vec, out) == (
            [j not in {i // gm.WIDTH ** 2 for i in touched} for j in range(2)],
            [j not in {i // gm.WIDTH for i in touched} for j in range(1_100 // gm.WIDTH + 1)])
        assert vec == gm.BlockVector.of([mv(IntPayload(i)) for i in range(1_100)])


def _leaves(vec):
    return [leaf for mid in vec.root for leaf in mid]


def _shared(old, new):
    """For the mids and for the leaves, whether each node of ``new`` is the
    one of ``old`` (the same object), in index order."""
    return ([b is a for a, b in zip(old.root, new.root)],
            [b is a for a, b in zip(_leaves(old), _leaves(new))])


class TestAddress:
    """An Address is a one-field tuple; the code relies on these behaviours."""

    def test_equality_and_hash_follow_the_index(self):
        assert Address(3) == Address(3) and Address(3) != Address(4)
        assert Address(3) != 3
        assert hash(Address(3)) == hash(Address(3))
        assert len({Address(3), Address(3), Address(4)}) == 2

    def test_order_follows_the_index(self):
        assert Address(2) < Address(5) <= Address(5) < Address(10)
        assert sorted([Address(9), Address(2), Address(5)]) == \
            [Address(2), Address(5), Address(9)]

    def test_repr_and_field(self):
        assert repr(Address(7)) == str(Address(7)) == f"{Address(7)}" == "@7"
        assert Address(index=7).index == 7
        assert isinstance(Address(7), tuple)

    def test_dict_key(self):
        table = {Address(1): "a", Address(2): "b"}
        assert table[Address(1)] == "a"
        assert Address(3) not in table

    def test_round_trip_through_the_interchange_format(self):
        from minisol.binder import bind_addresses
        from minisol.parser import parse_source
        from minisol.syntax import (
            Assign,
            Econst,
            Evar,
            Vint,
            program_from_data,
            program_to_data,
        )
        one = Assign(Evar(Address(12), Tuint()), Econst(Vint(1)))
        assert program_to_data([one])[0]["lhs"] == \
            {"kind": "var", "addr": 12, "type": {"kind": "int", "width": 64, "signed": False}}
        text = (ROOT / "samples" / "wallet.lls").read_text(encoding="utf-8")
        decls = bind_addresses(parse_source(text), 100).decls
        data = json.loads(json.dumps(program_to_data(decls)))
        back = program_from_data(data)
        assert back == list(decls)
        # equal to their index tuples, so count: a decoded plain tuple is no Address
        assert len(list(_addresses(back))) == len(list(_addresses(decls))) > 0

    def test_no_tuple_check_receives_an_address(self, monkeypatch, capsys):
        # The sites that test for a tuple are the two below; a new one must
        # be checked here too. The codec tests its format codes, never the
        # values it encodes, and only tests compare a Models with anything.
        assert _tuple_check_sites() == [("engine.py", "Models.__eq__"),
                                        ("syntax.py", "_decode"), ("syntax.py", "_encode")]
        from minisol import engine, syntax
        from minisol.cli import cli_main
        seen = []

        def spy(name, fn, arg):
            def wrapped(*args):
                seen.append((name, isinstance(args[arg], Address)))
                return fn(*args)
            return wrapped

        monkeypatch.setattr(syntax, "_encode", spy("_encode", syntax._encode, 0))
        monkeypatch.setattr(syntax, "_decode", spy("_decode", syntax._decode, 0))
        monkeypatch.setattr(engine.Models, "__eq__", spy("Models", engine.Models.__eq__, 1))
        monkeypatch.chdir(ROOT)
        doc = (ROOT / "tests" / "golden" / "emit-ast-wallet.out").read_text(encoding="utf-8")
        syntax.program_from_data(json.loads(doc)["program"])
        for argv in (["emit-ast", "samples/wallet.lls"],
                     ["verify", "samples/wallet.lls", "--spec", "samples/no_in_time.spec"],
                     ["verify", "tests/golden/branchy.lls", "--spec",
                      "tests/golden/branchy.spec"]):
            assert cli_main(argv) in (0, 1)
        capsys.readouterr()
        assert {name for name, _ in seen} >= {"_encode", "_decode"}
        assert [hit for hit in seen if hit[1]] == []


def _addresses(x):
    """Every Address inside a tree of dataclasses and tuples, over the
    fields that take part in equality."""
    if isinstance(x, Address):
        yield x
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            if f.compare:
                yield from _addresses(getattr(x, f.name))
    elif isinstance(x, (tuple, list)):
        for item in x:
            yield from _addresses(item)


def _tuple_check_sites():
    """(file, function) of each ``isinstance`` call in ``src/minisol`` whose
    class argument names ``tuple``."""
    sites = set()
    for path in sorted((ROOT / "src" / "minisol").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            prefix = "" if cls is tree else f"{cls.name}."
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for n in ast.walk(fn):
                    if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) \
                            and n.func.id == "isinstance" and len(n.args) == 2 and any(
                                isinstance(c, ast.Name) and c.id == "tuple"
                                for c in ast.walk(n.args[1])):
                        sites.add((path.name, prefix + fn.name))
    return sorted(sites)
