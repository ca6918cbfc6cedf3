"""Value-layer semantics: turn language values into memory values.

``eval_value`` is the single entry point. Constants wrap directly into
tagged memory values, and the memory value of an integer literal is
built once per domain, in a bounded cache. Arrays, mappings,
structs and field accesses resolve through the store:

- ``value_address`` is the one resolver of array-element and
  mapping-entry addresses, for reads here and for writes in the
  expression and statement layers;
- ``locate_map_node`` is the one walk over a mapping chain; a miss
  reports the chain's tail, where the statement layer links a new entry;
- ``resolve_field`` reads the instance block once and walks the member
  path over the struct type blocks.

Value evaluation is read only: no operation here ever produces a new
memory state.

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


@dataclass(slots=True, unsafe_hash=True)
class Env:
    """Gas left, and the domain of the executing function or global scope."""
    gas: int
    domain: Address


@dataclass(frozen=True)
class BlockInfo:
    number: int = 0
    now: int = 0
    sender: Address = Address(0)
    msg_value: int = 0
    gas_price: int = 0


def initial_env(gas: int, domain: Address) -> Env:
    return Env(gas, domain)


def eval_value(K: int, v: LValue, sigma: MemoryState,
               env: Env) -> MemoryValue | None:
    if K <= 0:
        return None
    if isinstance(v, Vint):
        return int_literal(v.value, v.width, v.signed, env.domain)
    if isinstance(v, Vbool):
        return MemoryValue(BoolPayload(v.bit), env.domain)
    if isinstance(v, (Varray, Vmap)):
        addr = value_address(K, v, sigma, env)
        block = None if addr is None else gm.read(sigma, addr, "chck", env)
        return map_entry_value(block) if isinstance(v, Vmap) else block
    if isinstance(v, Vstruct):
        block = gm.read(sigma, v.inst_addr, "chck", env)
        if block is None or not isinstance(block.payload, StructInstance):
            return None
        inst = block.payload
        if inst.type_addr is not None and inst.type_addr != v.type_addr:
            return None
        return block
    if isinstance(v, Vfield):
        return resolve_field(v.inst_addr, v.members, sigma, env, expected_type=v.type_addr)
    return None


@lru_cache(maxsize=1024)
def int_literal(value: int, width: int, signed: bool, domain: Address) -> MemoryValue:
    return MemoryValue(IntPayload(wrap_int(value, width, signed), width, signed), domain)


def _eval_expr_r(K, e, sigma, env):
    # Index and key positions hold full expressions; the
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


def value_address(K: int, v: LValue, sigma: MemoryState,
                  env: Env) -> Address | None:
    """Address of a fully indexed array element or of a mapping entry
    node; absent for any other value, or when an index or key fails to
    evaluate, overflows or misses."""
    if isinstance(v, Varray):
        indices = _concrete_indices(K - 1, v.indices, sigma, env)
        if indices is None:
            return None
        return locate_array_element(v.arr_type, v.base, indices, sigma)
    if isinstance(v, Vmap):
        return resolve_map_path(K - 1, v, sigma, env)
    return None


def locate_array_element(arr_type, base: Address, indices,
                         sigma: MemoryState) -> Address | None:
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
    return gm.address_offset(off, base, sigma.size)


def locate_map_node(key_payload, base: Address, sigma: MemoryState, env: Env):
    """Walk one mapping chain for a key: ``(entry address, None)`` when it
    is found, ``(None, tail address)`` when it is missing, and
    ``(None, None)`` when the chain is broken.

    Keys compare by payload equality only. The walk is bounded by the
    memory size, so a corrupted cyclic chain terminates as broken.
    """
    cur = base
    for _ in range(sigma.size + 1):
        block = gm.read(sigma, cur, "chck", env)
        if block is None or not isinstance(block.payload, MapNode):
            return None, None
        node = block.payload
        if node.kv is not None and node.kv[0] == key_payload:
            return cur, None
        if node.next is None:
            return None, cur
        cur = node.next
    return None, None


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
        addr, _tail = locate_map_node(kv.payload, base, sigma, env)
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


def resolve_field(head: Address, members, sigma: MemoryState, env: Env,
                  expected_type: Address | None = None) -> MemoryValue | None:
    """The member that ``members`` names, a path through the struct
    instance at ``head`` and the instances embedded in it, tagged like
    the instance block. A function member comes back with ``head`` as
    its receiver. Absent when the instance is not
    readable, its type is not ``expected_type`` (when given), or the path
    leaves the declared members."""
    block = gm.read(sigma, head, "chck", env)
    if not members or block is None or not isinstance(block.payload, StructInstance):
        return None
    payload = block.payload
    if expected_type is not None and payload.type_addr != expected_type:
        return None
    for name in members:
        if not isinstance(payload, StructInstance) or payload.type_addr is None:
            return None
        ty_block = gm.read(sigma, payload.type_addr, "chck", env)
        if ty_block is None or not isinstance(ty_block.payload, StructTypeInfo):
            return None
        names = [n for n, _t in ty_block.payload.members]
        if name not in names or len(payload.members) != len(names):
            return None
        payload = payload.members[names.index(name)]
    if isinstance(payload, Fid):
        payload = replace(payload, receiver=head)
    return replace(block, payload=payload)
