"""Value layer: constants, array and mapping resolution, field access."""

import random
from dataclasses import replace

from minisol import memory as gm
from minisol.memory import (
    Address,
    BoolPayload,
    Fid,
    IntPayload,
    MapNode,
    MemoryValue,
    StructInstance,
)
from minisol.stdlib import fresh_memory, write_message
from minisol.syntax import (
    Econst,
    Evar,
    Tarray,
    Tuint,
    Varray,
    Vbool,
    Vfield,
    Vint,
    Vmap,
    Vstruct,
)
from minisol.values import (
    eval_value,
    locate_array_element,
    locate_map_node,
    resolve_field,
    resolve_map_path,
)
from minisol.stmts import init_array
from minisol.values import BlockInfo


class TestConstants:
    def test_bool_tagged_with_env(self, sigma, env):
        out = eval_value(10, Vbool(True), sigma, env)
        assert out.payload == BoolPayload(True)
        assert out.domain == env.domain
        assert out.level == env.level

    def test_int_keeps_width_sign(self, sigma, env):
        out = eval_value(10, Vint(0, 64, False), sigma, env)
        assert out.payload == IntPayload(0, 64, False)

    def test_int_literal_is_wrapped_tagged_and_built_once(self, sigma, env):
        out = eval_value(10, Vint(300, 8, False), sigma, env)
        assert out == gm.MemoryValue(IntPayload(44, 8, False), env.domain, env.level)
        assert eval_value(10, Vint(300, 8, False), sigma, env) is out
        other = replace(env, domain=Address(3), level=0)
        assert eval_value(10, Vint(300, 8, False), sigma, other) == gm.MemoryValue(
            IntPayload(44, 8, False), Address(3), 0)

    def test_constant_mapping_property(self, sigma, env):
        # Every generated constant evaluates to a payload carrying
        # exactly its native value.
        rng = random.Random(11)
        for _ in range(200):
            if rng.random() < 0.5:
                bit = bool(rng.getrandbits(1))
                out = eval_value(5, Vbool(bit), sigma, env)
                assert out.payload.bit is bit
            else:
                n = rng.randint(-(2 ** 63), 2 ** 63 - 1)
                out = eval_value(5, Vint(n, 64, True), sigma, env)
                assert out.payload.value == n

    def test_budget_exhaustion_absent(self, sigma, env):
        assert eval_value(0, Vbool(True), sigma, env) is None


ARR_T = Tarray(2, Tarray(3, Tarray(2, Tuint())))


def seeded_array(sigma, env, base=Address(0)):
    sigma2 = gm.allocate_at(sigma, base, 20)
    return init_array(100, sigma2, base, ARR_T, env)


class TestArrayValues:
    def test_worked_indexing_case(self, sigma, env):
        # a[2][3][2] with path [0, 1, 1] lands six blocks past the base.
        addr = locate_array_element(ARR_T, Address(0), [0, 1, 1], sigma, env)
        assert addr == Address(6)

    def test_one_dimensional_is_plain_offset(self, sigma, env):
        t = Tarray(5, Tuint())
        for i in range(5):
            assert locate_array_element(t, Address(3), [i], sigma, env) == Address(3 + i)

    def test_overflow_absent(self, sigma, env):
        assert locate_array_element(ARR_T, Address(0), [0, 3, 0], sigma, env) is None
        assert locate_array_element(ARR_T, Address(0), [2, 0, 0], sigma, env) is None

    def test_varray_eval_reads_element(self, sigma, env):
        seeded = seeded_array(sigma, env)
        elem = Address(6)
        seeded = gm.write(seeded, elem,
                          MemoryValue(IntPayload(42), domain=env.domain,
                                      level=env.level), "dir")
        v = Varray(ARR_T, (Econst(Vint(0)), Econst(Vint(1)), Econst(Vint(1))),
                   Address(0))
        out = eval_value(20, v, seeded, env)
        assert out.payload == IntPayload(42)

    def test_result_stays_inside_allocation(self, sigma, env):
        # Any in-bounds path must resolve within the 20-block run.
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    a = locate_array_element(ARR_T, Address(0), [i, j, k], sigma, env)
                    assert 0 <= a.index < 20

    def test_variable_index_path(self, sigma, env):
        seeded = seeded_array(sigma, env)
        iaddr = Address(30)
        seeded = gm.write(seeded, iaddr,
                          MemoryValue(IntPayload(1), domain=env.domain,
                                      level=env.level), "dir")
        v = Varray(ARR_T, (Econst(Vint(0)), Evar(iaddr, Tuint()), Econst(Vint(1))),
                   Address(0))
        out = eval_value(20, v, seeded, env)
        assert out is not None  # resolved through the variable index


def build_chain(sigma, env, base=Address(0), entries=()):
    """Manually build a mapping chain: head plus one node per entry."""
    head = MapNode(init=base, kv=None, key_type=Tuint(), value_type=Tuint())
    sigma = gm.write(sigma, base,
                     MemoryValue(head, domain=env.domain, level=env.level), "dir")
    prev = base
    for i, (k, v) in enumerate(entries):
        addr = Address(base.index + 1 + i)
        node = MapNode(init=base, kv=(IntPayload(k), IntPayload(v)),
                       key_type=Tuint(), value_type=Tuint())
        sigma = gm.write(sigma, addr,
                         MemoryValue(node, domain=env.domain, level=env.level), "dir")
        prev_block = gm.read(sigma, prev, "dir")
        sigma = gm.write(sigma, prev,
                         replace(prev_block,
                                 payload=replace(prev_block.payload, next=addr)),
                         "dir")
        prev = addr
    return sigma


class TestMappingValues:
    def test_three_node_chain_linear_scan_oracle(self, sigma, env):
        entries = [(10, 100), (20, 200), (30, 300)]
        seeded = build_chain(sigma, env, Address(0), entries)
        # independent linear scan over the chain we just built
        expected = {k: Address(1 + i) for i, (k, v) in enumerate(entries)}
        for k, _v in entries:
            got = locate_map_node(IntPayload(k), Address(0), seeded, env)
            assert got == expected[k]

    def test_missing_key_absent(self, sigma, env):
        seeded = build_chain(sigma, env, Address(0), [(10, 100)])
        assert locate_map_node(IntPayload(99), Address(0), seeded, env) is None

    def test_cycle_bounded(self, sigma, env):
        # head pointing at itself must terminate as absent
        head = MapNode(init=Address(0), kv=None, key_type=Tuint(),
                       value_type=Tuint(), next=Address(0))
        seeded = gm.write(sigma, Address(0),
                          MemoryValue(head, domain=env.domain), "dir")
        assert locate_map_node(IntPayload(1), Address(0), seeded, env) is None

    def test_vmap_eval_unwraps_entry_value(self, sigma, env):
        seeded = build_chain(sigma, env, Address(0), [(10, 100)])
        v = Vmap(Address(0), (Econst(Vint(10)),), Tuint(), Tuint(), None)
        out = eval_value(20, v, seeded, env)
        assert out.payload == IntPayload(100)

    def test_nested_chain_resolution(self, sigma, env):
        # outer chain: key 1 -> inner head at block 10
        inner_base = Address(10)
        seeded = build_chain(sigma, env, inner_base, [(7, 77)])
        outer_head = MapNode(init=Address(0), kv=None, key_type=Tuint(),
                             value_type=Tuint())
        seeded = gm.write(seeded, Address(0),
                          MemoryValue(outer_head, domain=env.domain), "dir")
        outer_node = MapNode(
            init=Address(0),
            kv=(IntPayload(1), MapNode(init=inner_base, kv=None,
                                       key_type=Tuint(), value_type=Tuint())),
            key_type=Tuint(), value_type=Tuint())
        seeded = gm.write(seeded, Address(5),
                          MemoryValue(outer_node, domain=env.domain), "dir")
        head_block = gm.read(seeded, Address(0), "dir")
        seeded = gm.write(seeded, Address(0),
                          replace(head_block,
                                  payload=replace(head_block.payload,
                                                  next=Address(5))), "dir")
        v = Vmap(Address(0), (Econst(Vint(1)), Econst(Vint(7))),
                 Tuint(), Tuint(), None)
        node_addr = resolve_map_path(20, v, seeded, env)
        assert node_addr == Address(11)  # first entry of the inner chain
        out = eval_value(20, v, seeded, env)
        assert out.payload == IntPayload(77)


class TestReadOnly:
    def test_value_evaluation_never_writes(self, sigma, env):
        seeded = seeded_array(sigma, env)
        before = seeded.blocks
        for v in (Vbool(True), Vint(7),
                  Varray(ARR_T, (Econst(Vint(1)), Econst(Vint(2)),
                                 Econst(Vint(1))), Address(0))):
            eval_value(30, v, seeded, env)
        assert seeded.blocks == before


class TestFieldAccess:
    def test_msg_value_member(self, names, env):
        sigma = fresh_memory(100)
        binfo = BlockInfo(sender=Address(1), msg_value=19)
        sigma = write_message(sigma, binfo)
        v = Vfield(Tuint(), names["0xmsg"], names["msg"], ("value",), None)
        out = eval_value(20, v, sigma, env)
        assert out.payload == IntPayload(19)

    def test_single_member_returned_unchanged(self, names, env):
        sigma = fresh_memory(100)
        binfo = BlockInfo(sender=Address(3))
        sigma = write_message(sigma, binfo)
        out = resolve_field(names["msg"], ("sender",), None, sigma, env)
        assert isinstance(out.payload, StructInstance)
        assert out.payload.type_addr == names["0xaddress"]

    def test_function_member_binds_receiver(self, names, env):
        # A function-valued member comes back with its owner attached as
        # the implicit receiver and the call arguments packed in.
        sigma = fresh_memory(100)
        binfo = BlockInfo(sender=Address(3))
        sigma = write_message(sigma, binfo)
        args = (MemoryValue(IntPayload(5)),)
        out = resolve_field(names["msg"], ("sender", "send"), args, sigma, env)
        assert isinstance(out.payload, Fid)
        assert out.payload.fun == names["0xsend"]
        assert out.payload.receiver == names["msg"]
        assert out.payload.args == args

    def test_unknown_member_absent(self, names, env, binfo):
        sigma = write_message(fresh_memory(100), binfo)
        assert resolve_field(names["msg"], ("nope",), None, sigma, env) is None

    def test_type_address_mismatch_absent(self, names, env, binfo):
        sigma = write_message(fresh_memory(100), binfo)
        out = resolve_field(names["msg"], ("value",), None, sigma, env,
                            expected_type=names["0xaddress"])
        assert out is None

    def test_vstruct_reads_instance(self, names, env, binfo):
        sigma = write_message(fresh_memory(100), binfo)
        v = Vstruct(names["0xmsg"], names["msg"])
        out = eval_value(10, v, sigma, env)
        assert isinstance(out.payload, StructInstance)
