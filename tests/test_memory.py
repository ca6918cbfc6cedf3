"""Block store: initialization, validated access, allocation, dumps."""

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
from minisol.stdlib import fresh_memory, standard_library
from minisol.stmts import _group_run, init_array
from minisol.syntax import Tarray, Tuint, array_dims
from minisol.values import TOP_LEVEL, initial_env


def mv(payload, domain=Address(0), access="public"):
    return MemoryValue(payload, domain=domain, level=0, access=access,
                       occupancy=gm.OCCUPY)


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
            gm.init_mem(gm.RESERVED_BLOCKS, standard_library(gm.RESERVED_BLOCKS))

    def test_empty_stdlib_leaves_user_blocks_free(self):
        sigma = gm.init_mem(100, [])
        assert all(b.occupancy == gm.FREE for b in sigma.blocks[:90])


class TestReadWrite:
    def test_read_after_write_dir(self, sigma):
        value = mv(IntPayload(7))
        out = gm.write(sigma, Address(3), value, "dir")
        assert gm.read(out, Address(3), "dir") == value

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
        value = MemoryValue(IntPayload(1), domain, 3, access, gm.OCCUPY)
        stored = gm.write(seeded, Address(4), value, "chck", owner).blocks[4]
        assert stored == MemoryValue(IntPayload(1), Address(50), 3, "public", gm.OCCUPY)

    @pytest.mark.parametrize("same_object", [True, False])
    def test_chck_write_stores_a_value_with_the_block_tags_as_it_is(self, sigma,
                                                                     same_object):
        owner = initial_env(10, Address(50))
        seeded = gm.write(sigma, Address(4), mv(IntPayload(9), Address(50), "private"), "dir")
        domain = seeded.blocks[4].domain if same_object else Address(50)
        value = MemoryValue(IntPayload(1), domain, 3, "private", gm.OCCUPY)
        assert gm.write(seeded, Address(4), value, "chck", owner).blocks[4] is value

    def test_throw_flag_write(self, sigma, names):
        out = gm.write(sigma, names["0xthrow"], mv(BoolPayload(True)), "dir")
        assert out.blocks[names["0xthrow"].index].payload == BoolPayload(True)


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
        assert gm.address_offset("+", 6, Address(0), 100) == Address(6)

    def test_identity(self):
        assert gm.address_offset("+", 0, Address(42), 100) == Address(42)

    def test_underflow_absent(self):
        assert gm.address_offset("-", 1, Address(0), 100) is None

    def test_overflow_absent(self):
        assert gm.address_offset("+", 1, Address(99), 100) is None


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
        s2 = gm.free_mem(s1, Address(2))
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
            out = gm.free_mem(sigma, Address(idx))
            if out is not None:
                sigma = out
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


class TestFreeMem:
    def test_free_then_chck_read_absent(self, sigma, env):
        seeded = gm.write(sigma, Address(4),
                          mv(IntPayload(9), env.domain), "dir")
        out = gm.free_mem(seeded, Address(4))
        assert gm.read(out, Address(4), "chck", env) is None
        assert isinstance(out.blocks[4].payload, Undef)

    def test_free_of_free_block_absent(self, sigma):
        assert gm.free_mem(sigma, Address(4)) is None

    def test_free_of_reserved_block_absent(self, sigma, names):
        for name in ("0xmodifier", "0xthrow", "0xaddress", "0xmsg"):
            assert gm.free_mem(sigma, names[name]) is None


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


class TestStdlibLoading:
    def test_library_variable_declaration_occupies_block(self):
        from minisol.syntax import Evar, Tuint, Var
        lib = standard_library(100) + [Var("public", Evar(Address(80), Tuint()))]
        sigma = gm.init_mem(100, lib)
        assert sigma.blocks[80].occupancy == gm.OCCUPY

    def test_unsupported_library_statement_is_config_error(self):
        from minisol.syntax import Snil
        with pytest.raises(MemoryConfigError):
            gm.init_mem(100, standard_library(100) + [Snil()])

    def test_oversized_library_function_is_config_error(self):
        from minisol.syntax import Fun, FunStop, Tbool
        bad = [Fun(Address(500), (), None, (Tbool(),), (FunStop(),), Address(501))]
        with pytest.raises(MemoryConfigError):
            gm.init_mem(100, bad)


# ---------------------------------------------------------------------------
# Model test: the block vector against a flat list of blocks

MODEL_SIZES = (11, 64, 65, 100, 1000)
MODEL_ARRAYS = (
    Tarray(3, Tuint()),
    Tarray(2, Tarray(3, Tuint())),
    Tarray(2, Tarray(3, Tarray(2, Tuint()))),
    Tarray(70, Tuint()),  # wider than one leaf
)


def _model_ops(size):
    index = st.one_of(st.integers(-1, size),  # -1 and size are out of range
                      st.sampled_from([0, 63, 64, size - 1]))
    domain = st.sampled_from([0, 1, size - 1 - gm.RESERVED_LAYOUT.index("0xglobal")])
    value = st.builds(lambda v, d, a: mv(IntPayload(v), Address(d), a),
                      st.integers(-3, 3), domain, st.sampled_from(gm.ACCESS_KINDS))
    return st.one_of(
        st.tuples(st.just("dir"), index, value),
        st.tuples(st.just("chck"), index, value, domain),
        st.tuples(st.just("allocate"), st.integers(0, 70)),
        st.tuples(st.just("allocate_at"), index, st.integers(0, 70)),
        st.tuples(st.just("free"), index),
        st.tuples(st.just("init_array"), index, st.sampled_from(MODEL_ARRAYS), domain),
    )


def _occupied(b):
    return MemoryValue(Undef(), b.domain, b.level, b.access, gm.OCCUPY)


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
            value = MemoryValue(value.payload, old.domain, value.level, old.access,
                                value.occupancy)
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
    elif kind == "free":
        i = args[0]
        if (not 0 <= i < size or gm.is_reserved(Address(i), size)
                or model[i].occupancy != gm.OCCUPY):
            return None
        model[i] = gm.free_value(model[i].domain)
        return range(i, i + 1)
    else:  # init_array: the run the statement layer lays down, spliced in
        base, arr_type, dom = args
        dims, _final = array_dims(arr_type)
        run = _group_run(tuple(dims), Address(dom), TOP_LEVEL) * dims[0]
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
    if kind == "free":
        return gm.free_mem(sigma, Address(args[0]))
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
        leaves = out.blocks.leaves
        assert [len(leaf) for leaf in leaves[:-1]] == [gm.CHUNK] * (len(leaves) - 1)
        assert sum(map(len, leaves)) == len(out.blocks) == size
        # structural sharing: a leaf the operation did not touch is the old object
        hit = {i // gm.CHUNK for i in touched}
        for j, (old, new) in enumerate(zip(sigma.blocks.leaves, leaves)):
            if j not in hit:
                assert new is old, (op, j)
        sigma = out
    assert gm.dump(sigma) == _flat_dump(model)


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

    def test_plain_tuple_is_coerced(self, sigma):
        rebuilt = gm.MemoryState(tuple(sigma.blocks), sigma.symbol_table, sigma.alloc_floor)
        assert isinstance(rebuilt.blocks, gm.BlockVector)
        assert rebuilt == sigma
        assert rebuilt.blocks.leaves == sigma.blocks.leaves

    def test_write_shares_every_other_leaf(self):
        sigma = fresh_memory(1000)
        out = gm.write(sigma, Address(130), mv(IntPayload(1)), "dir")
        for j, (old, new) in enumerate(zip(sigma.blocks.leaves, out.blocks.leaves)):
            assert (new is old) == (j != 130 // gm.CHUNK)

    def test_fresh_memory_shares_one_free_block(self):
        sigma = fresh_memory(1000)
        free = [b for b in sigma.blocks if b.occupancy == gm.FREE]
        assert len(free) > 900
        assert all(b is free[0] for b in free)
