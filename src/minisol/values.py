"""Value-layer semantics: turn language values into memory values.

``eval_value`` is the single entry point. Constants wrap directly into
tagged memory values, and the memory value of an integer literal is
built once per domain and level, in a bounded cache. Arrays, mappings,
structs and field accesses resolve through the store. Value evaluation
is read only: no operation here ever produces a new memory state.

A recursion budget K bounds every recursive evaluation; an exhausted
budget yields an absent result rather than a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from . import memory as gm
from .layout import array_layout, elem_offset
from .memory import (
    Address,
    BoolPayload,
    Fid,
    IntPayload,
    MapNode,
    MemoryState,
    MemoryValue,
    StructInstance,
    StructTypeInfo,
    mvalue,
)
from .symbolic import is_symbolic, wrap_int
from .syntax import (
    LValue,
    Tarray,
    Varray,
    Vbool,
    Vfield,
    Vint,
    Vmap,
    Vstruct,
    array_dims,
)


@dataclass(frozen=True)
class Env:
    gas: int
    gas_limit: int
    level: int
    domain: Address


@dataclass(frozen=True)
class BlockInfo:
    number: int = 0
    now: int = 0
    sender: Address = Address(0)
    msg_value: int = 0
    gas_price: int = 0


# Top-level environments run at a nonzero execution level; calls drop the
# level to zero so a return's domain switch is caught by the environment
# check.
TOP_LEVEL = 1


def initial_env(gas: int, domain: Address, level: int = TOP_LEVEL) -> Env:
    return Env(gas=gas, gas_limit=gas, level=level, domain=domain)


def eval_value(K: int, v: LValue, sigma: MemoryState,
               env: Env) -> MemoryValue | None:
    if K <= 0:
        return None
    if isinstance(v, Vint):
        return _int_literal(v.value, v.width, v.signed, env.domain, env.level)
    if isinstance(v, Vbool):
        return mvalue(BoolPayload(v.bit), env)
    if isinstance(v, Varray):
        indices = _concrete_indices(K - 1, v.indices, sigma, env)
        if indices is None:
            return None
        addr = locate_array_element(v.arr_type, v.base, indices, sigma, env)
        if addr is None:
            return None
        return gm.read(sigma, addr, "chck", env)
    if isinstance(v, Vmap):
        node_addr = resolve_map_path(K - 1, v, sigma, env)
        if node_addr is None:
            return None
        node = gm.read(sigma, node_addr, "chck", env)
        return map_entry_value(node)
    if isinstance(v, Vstruct):
        block = gm.read(sigma, v.inst_addr, "chck", env)
        if block is None or not isinstance(block.payload, StructInstance):
            return None
        inst = block.payload
        if inst.type_addr is not None and inst.type_addr != v.type_addr:
            return None
        return block
    if isinstance(v, Vfield):
        args = None
        if v.args is not None:
            args = []
            for a in v.args:
                av = _eval_expr_r(K - 1, a, sigma, env)
                if av is None:
                    return None
                args.append(av)
            args = tuple(args)
        return resolve_field(v.inst_addr, v.members, args, sigma, env,
                             expected_type=v.type_addr)
    return None


@lru_cache(maxsize=1024)
def _int_literal(value: int, width: int, signed: bool, domain: Address,
                 level: int) -> MemoryValue:
    return MemoryValue(IntPayload(wrap_int(value, width, signed), width, signed),
                       domain, level)


def _eval_expr_r(K, e, sigma, env):
    # Index, key and argument positions hold full expressions; the
    # expression layer lives above this one, so reach up lazily.
    from .exprs import eval_rvalue
    return eval_rvalue(K, e, sigma, env)


def _concrete_indices(K, index_exprs, sigma, env):
    out = []
    for e in index_exprs:
        mv = _eval_expr_r(K, e, sigma, env)
        if mv is None or not isinstance(mv.payload, IntPayload):
            return None
        val = mv.payload.value
        if val is None or is_symbolic(val):
            return None
        out.append(val)
    return out


def locate_array_element(arr_type, base: Address, indices, sigma: MemoryState,
                         env: Env) -> Address | None:
    """Address of a fully indexed array element, absent on overflow."""
    if not isinstance(arr_type, Tarray):
        return None
    dims, _base_t = array_dims(arr_type)
    if len(indices) != len(dims):
        return None
    for ix, d in zip(indices, dims):
        if not 0 <= ix < d:
            return None
    layout = array_layout(dims)
    off = elem_offset(indices, layout.group_sizes)
    return gm.address_offset("+", off, base, sigma.size)


def locate_map_node(key_payload, base: Address, sigma: MemoryState,
                    env: Env) -> Address | None:
    """Walk one mapping chain for a key; absent if missing or broken.

    Keys compare by payload equality only. The walk is bounded by the
    memory size, so a corrupted cyclic chain terminates as absent.
    """
    cur = base
    for _ in range(sigma.size + 1):
        block = gm.read(sigma, cur, "chck", env)
        if block is None or not isinstance(block.payload, MapNode):
            return None
        node = block.payload
        if node.kv is not None and node.kv[0] == key_payload:
            return cur
        if node.next is None:
            return None
        cur = node.next
    return None


def resolve_map_path(K: int, v: Vmap, sigma: MemoryState,
                     env: Env) -> Address | None:
    """Resolve a (possibly nested) mapping access to its entry node."""
    if K <= 0:
        return None
    base = v.base
    addr = None
    for i, key_expr in enumerate(v.keys):
        kv = _eval_expr_r(K - 1, key_expr, sigma, env)
        if kv is None:
            return None
        addr = locate_map_node(kv.payload, base, sigma, env)
        if addr is None:
            return None
        if i + 1 < len(v.keys):
            node = gm.read(sigma, addr, "chck", env)
            entry = node.payload.kv[1] if node and node.payload.kv else None
            if not isinstance(entry, MapNode):
                return None
            base = entry.init
    return addr


def map_entry_value(node: MemoryValue | None) -> MemoryValue | None:
    """Unwrap the stored value out of a mapping entry node."""
    if node is None or not isinstance(node.payload, MapNode) or node.payload.kv is None:
        return None
    return replace(node, payload=node.payload.kv[1])


def resolve_instance(sigma: MemoryState, env: Env,
                     head: Address) -> tuple[Address, Address] | None:
    """Base information of a struct value: instance and type addresses."""
    block = gm.read(sigma, head, "chck", env)
    if block is None or not isinstance(block.payload, StructInstance) \
            or block.payload.type_addr is None:
        return None
    return head, block.payload.type_addr


def walk_members(sigma: MemoryState, members, env: Env,
                 a_init: Address, a_type: Address):
    """Walk a member path; returns (owner address, member payload)."""
    inst_block = gm.read(sigma, a_init, "chck", env)
    if inst_block is None or not isinstance(inst_block.payload, StructInstance):
        return None
    inst = inst_block.payload
    receiver = a_init
    cur_type = a_type
    payload = None
    for i, name in enumerate(members):
        ty_block = gm.read(sigma, cur_type, "chck", env)
        if ty_block is None or not isinstance(ty_block.payload, StructTypeInfo):
            return None
        names = [n for n, _t in ty_block.payload.members]
        if name not in names or len(inst.members) != len(names):
            return None
        idx = names.index(name)
        payload = inst.members[idx]
        if i + 1 < len(members):
            if not isinstance(payload, StructInstance) or payload.type_addr is None:
                return None
            inst = payload
            cur_type = inst.type_addr
            # Nested member values are embedded, so the closest addressable
            # owner remains the instance block itself.
    return receiver, payload


def resolve_field(head: Address, members, args, sigma: MemoryState, env: Env,
                  expected_type: Address | None = None) -> MemoryValue | None:
    if not members:
        return None
    based = resolve_instance(sigma, env, head)
    if based is None:
        return None
    a_init, a_type = based
    if expected_type is not None and a_type != expected_type:
        return None
    found = walk_members(sigma, members, env, a_init, a_type)
    if found is None:
        return None
    receiver, payload = found
    if isinstance(payload, Fid):
        payload = replace(payload, receiver=receiver, args=args)
    block = gm.read(sigma, a_init, "dir")
    return replace(block, payload=payload)
