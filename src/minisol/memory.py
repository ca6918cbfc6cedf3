"""Block-addressed formal memory store.

The store is a fixed-size sequence of tagged memory values with value
semantics: every operation returns a fresh state and never mutates one
observed elsewhere. The sequence is a ``BlockVector``, a persistent
vector in the style of Bagwell's "Ideal Hash Trees" and Clojure's
``PersistentVector``: a spine tuple of ``CHUNK``-wide leaf tuples. A
write copies one leaf and the spine, and the new state shares every
other leaf with the old one, so a write costs the same at any memory
size. Whole-state comparisons skip the leaves two states share, and a
fresh store fills its free space with one shared free block.

Blocks are read and written either directly ("dir") or after validation
("chck"). The validation predicate lives only in this module: a chck
access succeeds iff the block is occupied and either the block is public
or the caller's domain matches the block's domain tag. ``read`` and
``write`` are the one access path of every evaluation, so each does its
bounds check, leaf lookup and validation in its own frame, without
calling a helper. A chck write keeps the block's domain and access, and
stores the value object itself when it already carries them.

The top of the address space is reserved for built-in blocks: the two
flag blocks (throw, modifier), the standard-library struct type blocks,
the message instance, and the built-in no-op functions with their return
slots. ``free_mem`` refuses to release reserved blocks.

Dump format (one line per block, tab separated):

    index<TAB>occupancy<TAB>access<TAB>domain<TAB>payload

The payload rendering is the stable text form documented in the README
and relied on by golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice

from .symbolic import is_symbolic

DEFAULT_MEMORY_SIZE = 100

PUBLIC = "public"
PRIVATE = "private"
INTERNAL = "internal"
ACCESS_KINDS = (PUBLIC, PRIVATE, INTERNAL)

OCCUPY = "occupy"
FREE = "free"


class MemoryConfigError(Exception):
    """Raised when a memory space cannot be set up as requested."""


@dataclass(frozen=True, order=True)
class Address:
    index: int

    def __repr__(self):
        return f"@{self.index}"


# ---------------------------------------------------------------------------
# Payloads

class Payload:
    """Base class of the tagged payload union stored in a block."""


@dataclass(frozen=True)
class Undef(Payload):
    pass


@dataclass(frozen=True)
class BoolPayload(Payload):
    bit: object = None  # bool, SymExpr or None


@dataclass(frozen=True)
class IntPayload(Payload):
    value: object = None  # int, SymExpr or None
    width: int = 64
    signed: bool = False


@dataclass(frozen=True)
class Fid(Payload):
    fun: Address | None
    receiver: Address | None = None
    args: tuple | None = None  # bound call arguments (memory values)


@dataclass(frozen=True)
class ContractInfo(Payload):
    name: Address
    members: tuple = ()   # (member name, member address) pairs
    inherits: tuple = ()  # addresses of inherited contracts


@dataclass(frozen=True)
class StructTypeInfo(Payload):
    type_addr: Address
    members: tuple = ()  # (field name, field type) pairs


@dataclass(frozen=True)
class StructInstance(Payload):
    type_addr: Address | None
    members: tuple = ()  # member payloads in declaration order


@dataclass(frozen=True)
class MapNode(Payload):
    init: Address                 # head address of the owning chain
    kv: tuple | None = None       # (key payload, value payload) or None for the head
    key_type: object = None
    value_type: object = None
    next: Address | None = None


@dataclass(frozen=True)
class FunctionInfo(Payload):
    returns: tuple = ()          # declared return types
    params: tuple | None = ()    # parameter declarations; None means "ignore arguments"
    ret_addr: Address | None = None
    body: tuple = ()             # statement list


@dataclass(frozen=True)
class StatementBody(Payload):
    body: tuple = ()


@dataclass(frozen=True)
class ArrayGroup(Payload):
    """Header block marking one group of a multidimensional array."""
    dim: int = 0
    group: int = 1


@dataclass(frozen=True)
class MemoryValue:
    payload: Payload
    domain: Address = Address(0)
    level: int = 0
    access: str = PUBLIC
    occupancy: str = OCCUPY


def free_value(domain: Address = Address(0)) -> MemoryValue:
    return MemoryValue(Undef(), domain=domain, level=0, access=PUBLIC, occupancy=FREE)


def mvalue(payload: Payload, env=None, access: str = PUBLIC) -> MemoryValue:
    """Tag a payload with the evaluating environment's domain and level."""
    if env is None:
        return MemoryValue(payload, access=access)
    return MemoryValue(payload, domain=env.domain, level=env.level, access=access)


# ---------------------------------------------------------------------------
# Reserved block layout (top of the address space, highest index first)

RESERVED_LAYOUT = (
    "0xthrow",      # throw flag, Bool(false) at init
    "0xmodifier",   # modifier flag, Bool(false) at init
    "0xaddress",    # standard-library address struct type
    "0xmsg",        # standard-library msg struct type
    "msg",          # message instance block, populated per run
    "0xsend",       # built-in no-op send function
    "0xsend.ret",   # its return slot
    "0xtransfer",   # built-in no-op transfer event stub
    "0xtransfer.ret",
    "0xglobal",     # top-level scope domain identifier
)

RESERVED_BLOCKS = len(RESERVED_LAYOUT)


def reserved_addresses(size: int = DEFAULT_MEMORY_SIZE) -> dict[str, Address]:
    return {name: Address(size - 1 - i) for i, name in enumerate(RESERVED_LAYOUT)}


def is_reserved(addr: Address, size: int) -> bool:
    return size - RESERVED_BLOCKS <= addr.index < size


# ---------------------------------------------------------------------------
# Block vector

CHUNK = 64  # leaf width, a power of two: an index splits into leaf and slot by shift and mask
_SHIFT = CHUNK.bit_length() - 1
_MASK = CHUNK - 1


class BlockVector:
    """Persistent sequence of memory values: a spine tuple of leaf tuples.

    Every leaf but the last holds exactly ``CHUNK`` values. ``set`` and
    ``update`` return a new vector that shares each leaf they leave
    untouched. ``len``, integer indexing and iteration behave as on a
    tuple, a slice is a tuple, and ``==`` skips the leaves two vectors
    share.
    """

    __slots__ = ("leaves", "size")

    def __init__(self, leaves: tuple, size: int):
        self.leaves = leaves
        self.size = size

    @classmethod
    def of(cls, values) -> BlockVector:
        values = tuple(values)
        return cls(tuple(values[i:i + CHUNK] for i in range(0, len(values), CHUNK)),
                   len(values))

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return chain.from_iterable(self.leaves)

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(self.size)
            if step > 0:
                return tuple(islice(self, start, max(start, stop), step))
            return tuple(self)[i]
        if i < 0:
            i += self.size
            if i < 0:
                raise IndexError("block index out of range")
        return self.leaves[i >> _SHIFT][i & _MASK]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockVector):
            return NotImplemented
        return self.size == other.size and all(
            a is b or a == b for a, b in zip(self.leaves, other.leaves))

    def __repr__(self) -> str:
        return f"BlockVector({tuple(self)!r})"

    def set(self, i: int, value) -> BlockVector:
        """This vector with block ``0 <= i < len`` replaced: one leaf and the spine are copied."""
        j = i >> _SHIFT
        leaves = list(self.leaves)
        leaf = list(leaves[j])
        leaf[i & _MASK] = value
        leaves[j] = tuple(leaf)
        return BlockVector(tuple(leaves), self.size)

    def update(self, items) -> BlockVector:
        """This vector with each ``(i, value)`` of ``items`` applied in order,
        ``0 <= i < len``. Each touched leaf is copied once."""
        touched = {}
        for i, value in items:
            j = i >> _SHIFT
            leaf = touched.get(j)
            if leaf is None:
                leaf = touched[j] = list(self.leaves[j])
            leaf[i & _MASK] = value
        leaves = list(self.leaves)
        for j, leaf in touched.items():
            leaves[j] = tuple(leaf)
        return BlockVector(tuple(leaves), self.size)

    def diff(self, other: BlockVector):
        """Ascending indices at which the two vectors hold unequal blocks,
        over their common length; shared and equal leaves are skipped."""
        for j, (la, lb) in enumerate(zip(self.leaves, other.leaves)):
            if la is lb or la == lb:
                continue
            base = j << _SHIFT
            for k, (a, b) in enumerate(zip(la, lb)):
                if a is not b and a != b:
                    yield base + k


@dataclass(frozen=True)
class MemoryState:
    blocks: BlockVector = ()  # any other sequence of blocks is coerced
    symbol_table: dict = field(default_factory=dict)
    alloc_floor: int = 0  # allocate() never hands out blocks below this index

    def __post_init__(self):
        if not isinstance(self.blocks, BlockVector):
            object.__setattr__(self, "blocks", BlockVector.of(self.blocks))

    @property
    def size(self) -> int:
        return self.blocks.size

    def addr_of(self, name: str) -> Address:
        return self.symbol_table[name]


# ---------------------------------------------------------------------------
# Operations

def init_mem(size: int, stdlib=()) -> MemoryState:
    """Build a fresh memory space and load the standard library into it.

    The library is a statement list; struct declarations land in their
    reserved struct-type blocks, function declarations become stored
    function bodies with initialized return slots, and variable
    declarations become occupied default blocks. The two flag blocks are
    always initialized to false.
    """
    if size < RESERVED_BLOCKS + 1:
        raise MemoryConfigError(
            f"memory size {size} is too small: the standard library needs "
            f"{RESERVED_BLOCKS} reserved blocks plus user space"
        )
    names = reserved_addresses(size)
    gdom = names["0xglobal"]
    blocks = [free_value(gdom)] * size  # one shared free block

    def put(addr: Address, payload: Payload, access: str = PUBLIC):
        blocks[addr.index] = MemoryValue(payload, domain=gdom, level=0,
                                         access=access, occupancy=OCCUPY)

    put(names["0xthrow"], BoolPayload(False))
    put(names["0xmodifier"], BoolPayload(False))
    put(names["0xglobal"], Undef())

    from . import syntax  # deferred: the statement classes live one layer up

    for stmt in stdlib:
        if isinstance(stmt, syntax.StructDecl):
            put(stmt.type_addr, StructTypeInfo(stmt.type_addr, tuple(stmt.members)))
        elif isinstance(stmt, syntax.Fun):
            if stmt.name.index >= size or (stmt.ret_addr and stmt.ret_addr.index >= size):
                raise MemoryConfigError(f"library function {stmt.name} does not fit")
            put(stmt.name, FunctionInfo(tuple(stmt.returns), stmt.params,
                                        stmt.ret_addr, tuple(stmt.body)))
            if stmt.ret_addr is not None:
                put(stmt.ret_addr, Undef())
        elif isinstance(stmt, syntax.Var):
            decl = stmt.decl
            if decl.addr is None:
                raise MemoryConfigError("library variable without an address")
            put(decl.addr, Undef(), access=stmt.access or PUBLIC)
        else:
            raise MemoryConfigError(
                f"unsupported statement in standard library: {type(stmt).__name__}"
            )

    return MemoryState(BlockVector.of(blocks), dict(names))


def read(sigma: MemoryState, addr: Address, mode: str = "dir",
         env=None) -> MemoryValue | None:
    i = addr.index
    blocks = sigma.blocks
    if not 0 <= i < blocks.size:
        return None
    block = blocks.leaves[i >> _SHIFT][i & _MASK]
    if mode == "dir":
        return block
    if mode == "chck":
        if block.occupancy == OCCUPY and (
                block.access == PUBLIC or env is not None and env.domain == block.domain):
            return block
        return None
    raise ValueError(f"unknown access mode {mode!r}")


def write(sigma: MemoryState, addr: Address, value: MemoryValue, mode: str = "dir",
          env=None) -> MemoryState | None:
    i = addr.index
    blocks = sigma.blocks
    if not 0 <= i < blocks.size:
        return None
    if mode == "chck":
        old = blocks.leaves[i >> _SHIFT][i & _MASK]
        if old.occupancy != OCCUPY or not (
                old.access == PUBLIC or env is not None and env.domain == old.domain):
            return None
        # Keep the block's declared ownership, so access control is stable
        # across writers.
        if old.access != value.access or not (
                old.domain is value.domain or old.domain == value.domain):
            value = MemoryValue(value.payload, old.domain, value.level, old.access,
                                value.occupancy)
    elif mode != "dir":
        raise ValueError(f"unknown access mode {mode!r}")
    return MemoryState(blocks.set(i, value), sigma.symbol_table, sigma.alloc_floor)


def address_offset(op: str, offset: int, addr: Address,
                   size: int = DEFAULT_MEMORY_SIZE) -> Address | None:
    if op == "+":
        idx = addr.index + offset
    elif op == "-":
        idx = addr.index - offset
    else:
        raise ValueError(f"unknown offset op {op!r}")
    if 0 <= idx < size:
        return Address(idx)
    return None


def allocate(sigma: MemoryState, n: int) -> tuple[Address, MemoryState] | None:
    """First-fit scan for n contiguous free blocks, lowest index wins.

    The scan starts at the allocation floor, which the frontend raises
    past its name-bound region so dynamic allocations never collide with
    blocks awaiting declaration.
    """
    if n <= 0:
        return None
    run = 0
    floor = sigma.alloc_floor
    for i, block in enumerate(islice(sigma.blocks, floor, None), floor):
        if block.occupancy == FREE:
            run += 1
            if run == n:
                base = i - n + 1
                return Address(base), _mark_occupied(sigma, base, n)
        else:
            run = 0
    return None


def allocate_at(sigma: MemoryState, base: Address, n: int) -> MemoryState | None:
    """Reserve n contiguous blocks at a fixed base (named array storage)."""
    if n <= 0 or not 0 <= base.index <= sigma.size - n:
        return None
    if any(b.occupancy != FREE for b in sigma.blocks[base.index:base.index + n]):
        return None
    return _mark_occupied(sigma, base.index, n)


def _mark_occupied(sigma: MemoryState, base: int, n: int) -> MemoryState:
    blocks = sigma.blocks
    occupied = ((i, MemoryValue(Undef(), b.domain, b.level, b.access, OCCUPY))
                for i, b in enumerate(blocks[base:base + n], base))
    return MemoryState(blocks.update(occupied), sigma.symbol_table, sigma.alloc_floor)


def free_mem(sigma: MemoryState, addr: Address) -> MemoryState | None:
    if not 0 <= addr.index < sigma.size or is_reserved(addr, sigma.size):
        return None
    block = sigma.blocks[addr.index]
    if block.occupancy != OCCUPY:
        return None
    return write(sigma, addr, free_value(block.domain), "dir")


# ---------------------------------------------------------------------------
# Dump rendering

def _render_scalar(v) -> str:
    if v is None:
        return "?"
    if is_symbolic(v):
        return f"~{v}"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def render_payload(p: Payload) -> str:
    if isinstance(p, Undef):
        return "undef"
    if isinstance(p, BoolPayload):
        return f"bool:{_render_scalar(p.bit)}"
    if isinstance(p, IntPayload):
        sign = "i" if p.signed else "u"
        return f"int:{sign}{p.width}:{_render_scalar(p.value)}"
    if isinstance(p, Fid):
        fun = p.fun.index if p.fun else "-"
        receiver = p.receiver.index if p.receiver else "-"
        nargs = len(p.args) if p.args is not None else "-"
        return f"fid:{fun}:receiver={receiver}:args={nargs}"
    if isinstance(p, ContractInfo):
        mem = ",".join(f"{n}@{a.index}" for n, a in p.members)
        inh = ",".join(str(a.index) for a in p.inherits)
        return f"contract:{p.name.index}:members[{mem}]:inherits[{inh}]"
    if isinstance(p, StructTypeInfo):
        mem = ",".join(n for n, _t in p.members)
        return f"struct-type:{p.type_addr.index}:fields[{mem}]"
    if isinstance(p, StructInstance):
        ty = p.type_addr.index if p.type_addr else "-"
        mem = ",".join(render_payload(m) for m in p.members)
        return f"struct:{ty}:{{{mem}}}"
    if isinstance(p, MapNode):
        if p.kv is None:
            kv = "-"
        else:
            kv = f"{render_payload(p.kv[0])}=>{render_payload(p.kv[1])}"
        nxt = p.next.index if p.next else "-"
        return f"map-node:init={p.init.index}:kv[{kv}]:next={nxt}"
    if isinstance(p, FunctionInfo):
        ret = p.ret_addr.index if p.ret_addr else "-"
        npar = len(p.params) if p.params is not None else "*"
        return f"function:returns={len(p.returns)}:params={npar}:ret@{ret}:body={len(p.body)}"
    if isinstance(p, StatementBody):
        return f"stmts:{len(p.body)}"
    if isinstance(p, ArrayGroup):
        return f"array-group:dim={p.dim}:group={p.group}"
    return f"<{type(p).__name__}>"


def dump(sigma: MemoryState) -> str:
    # Blocks are shared objects (all free space is one), so each distinct
    # block is rendered once; ``sigma`` keeps every id in the memo alive.
    rendered = {}
    lines = []
    for i, b in enumerate(sigma.blocks):
        text = rendered.get(id(b))
        if text is None:
            text = rendered[id(b)] = (f"{b.occupancy}\t{b.access}\t{b.domain.index}"
                                      f"\t{render_payload(b.payload)}")
        lines.append(f"{i}\t{text}")
    return "\n".join(lines)
