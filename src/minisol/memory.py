"""Block-addressed formal memory store.

The store is a fixed-size sequence of tagged memory values with value
semantics: every operation returns a fresh state and never mutates one
observed elsewhere. The sequence is a ``BlockVector``, a persistent
vector in the style of Bagwell's "Ideal Hash Trees" and Clojure's
``PersistentVector``: a trie of three levels at every size, a root list
of mid lists of ``WIDTH``-wide leaf lists, each mid ``WIDTH`` leaves
wide. A write copies the root, one mid and one leaf, once each, and
stores into the fresh leaf (path copying); the new state shares every
other mid and leaf with the old one. A write thus copies at most
``3 * WIDTH`` list slots up to ``WIDTH ** 3`` (32 768) blocks, and one
more root slot per ``WIDTH ** 2`` blocks beyond: one iteration of the
counting loop ``while (i < k) { n += 1; i += 1; }`` costs about 7 us of
CPU at 100, 10 000 and 20 000 blocks alike, within 5% across the three
sizes (Python 3.11, 2-core x86_64). Whole-state comparisons skip the
mids and leaves two states share. A fresh store fills its free space
with one shared free block, every full all-free leaf is one shared leaf
list, and every full all-free mid one shared mid list.

``dump`` renders by runs: each distinct block's text and whether each
distinct mid and leaf holds one block object throughout (by identity,
not ``==``) are found once. Consecutive such nodes of one block are one
run, whose lines are built by C-level joins: each whole hundred from
100 up is one join over the two-digit suffixes ``00``..``99``. Mixed
leaves are rendered block by block, and all pieces are joined once.

An ``Address`` is a one-field ``NamedTuple``, so hashing, equality and
ordering run in C and ``.index`` is a C-level getter.

Blocks are read and written either directly ("dir") or after validation
("chck"). The validation predicate lives only in this module: a chck
access succeeds iff the block is occupied and either the block is public
or the caller's domain matches the block's domain tag. So do the block
layout and the reserved names: no other module indexes a root, mid or
leaf or names the constants that split an index (``tests/test_hygiene.py``
checks this): they access blocks through ``read``, ``write``, the closure
that ``checked_reader`` builds for a compiled variable reference, the
one that ``checked_writer`` builds for an assignment, or a
``BlockVector``'s tuple-like indexing. ``read``, ``write`` and the two
closures each do their bounds check and node lookup in their own frame,
and a closure finds its mid, leaf and slot once, when it is built. Every
chck write validates through ``_overwrite``: it keeps the block's domain
and access, and stores the value object itself when it already carries
them. A state derived from another is built by
``MemoryState.with_blocks``, which skips the coercion of
``__post_init__``, and a vector derived from another is built without
``__init__`` too.

``MemoryState``, ``MemoryValue``, ``IntPayload`` and ``BoolPayload`` are
built on every dispatch, so they are slotted dataclasses without
``frozen``: a frozen dataclass pays for ``object.__setattr__`` on every
field. They still compare and hash by value, but their immutability,
like that of the root, mid and leaf lists, is a rule rather than a
language guarantee. Tests enforce it: the AST checks in
``tests/test_hygiene.py`` reject any store to their fields outside their
own class bodies, any ``setattr`` call, and any mutation of a root, mid
or leaf outside ``BlockVector``'s own methods, and the property test in
``tests/test_agreement.py`` checks that forked paths agree with concrete
runs.

The top of the address space is reserved for built-in blocks: the two
flag blocks (throw, modifier), the standard-library struct type blocks,
the message instance, the built-in no-op functions with their return
slots, and the global scope's domain block. Their addresses follow from
the size (``reserved_addresses``, ``MemoryState.addr_of``), so a state
is its blocks and its allocation floor alone.

Dump format (one line per block, tab separated):

    index<TAB>occupancy<TAB>access<TAB>domain<TAB>payload

The payload rendering is the stable text form documented in the README
and relied on by golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

from .symbolic import is_symbolic

_new = object.__new__

DEFAULT_MEMORY_SIZE = 100

PUBLIC = "public"
PRIVATE = "private"
INTERNAL = "internal"
ACCESS_KINDS = (PUBLIC, PRIVATE, INTERNAL)

OCCUPY = "occupy"
FREE = "free"


class MemoryConfigError(Exception):
    """Raised when a memory space cannot be set up as requested."""


class Address(NamedTuple):
    """A block index."""

    index: int

    def __repr__(self):
        return f"@{self.index}"


# ---------------------------------------------------------------------------
# Payloads

class Payload:
    """Base class of the tagged payload union stored in a block."""

    __slots__ = ()


@dataclass(frozen=True)
class Undef(Payload):
    pass


@dataclass(slots=True, unsafe_hash=True)
class BoolPayload(Payload):
    bit: object = None  # bool, SymExpr or None


@dataclass(slots=True, unsafe_hash=True)
class IntPayload(Payload):
    value: object = None  # int, SymExpr or None
    width: int = 64
    signed: bool = False


@dataclass(frozen=True)
class Fid(Payload):
    """A function value; read through a struct member, it names the instance as receiver."""
    fun: Address | None
    receiver: Address | None = None


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
    next: Address | None = None


@dataclass(frozen=True)
class FunctionInfo(Payload):
    returns: tuple = ()          # declared return types
    params: tuple | None = ()    # parameter declarations; None means "ignore arguments"
    ret_addr: Address | None = None
    body: tuple = ()             # statement list
    modifiers: tuple = ()        # modifier calls that guard each call


@dataclass(frozen=True)
class ArrayGroup(Payload):
    """Header block marking one group of a multidimensional array."""
    dim: int = 0
    group: int = 1


@dataclass(slots=True, unsafe_hash=True)
class MemoryValue:
    payload: Payload
    domain: Address = Address(0)
    access: str = PUBLIC
    occupancy: str = OCCUPY


def free_value(domain: Address = Address(0)) -> MemoryValue:
    return MemoryValue(Undef(), domain=domain, access=PUBLIC, occupancy=FREE)


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


def reserved_addresses(size: int) -> dict[str, Address]:
    return {name: Address(size - 1 - i) for i, name in enumerate(RESERVED_LAYOUT)}


# ---------------------------------------------------------------------------
# Block vector

# node width, a power of two: an index splits into mid, leaf and slot by shifts and masks
WIDTH = 32
SHIFT = WIDTH.bit_length() - 1  # index >> SHIFT is the leaf number
MID_SHIFT = 2 * SHIFT           # index >> MID_SHIFT is the mid number
MASK = WIDTH - 1


class BlockVector:
    """Persistent sequence of memory values: a root list of mid lists of
    leaf lists, three levels at every size.

    Block ``i`` is ``root[i >> MID_SHIFT][(i >> SHIFT) & MASK][i & MASK]``.
    Every leaf but the last holds exactly ``WIDTH`` values, and every mid
    but the last exactly ``WIDTH`` leaves. The nodes are lists that no
    code mutates once the vector is built: ``set`` and ``splice`` copy the
    root and each mid and leaf they touch once, store into the fresh
    copies, and share every other node. ``len``, integer
    indexing and iteration behave as on a tuple, a slice is a tuple, and
    ``==`` skips the mids and leaves two vectors share.
    """

    __slots__ = ("root", "size")

    def __init__(self, root: list, size: int):
        self.root = root
        self.size = size

    @classmethod
    def of(cls, values) -> BlockVector:
        if type(values) is not list:
            values = list(values)
        # one loop, not a comprehension per level: a vector of one leaf is
        # built as cheaply as with a level fewer
        root = []
        for i in range(0, len(values), WIDTH):
            if not (i >> SHIFT) & MASK:  # the first leaf of a mid
                mid = []
                root.append(mid)
            mid.append(values[i:i + WIDTH])
        new = _new(cls)
        new.root = root
        new.size = len(values)
        return new

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return chain.from_iterable(chain.from_iterable(self.root))

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(self.size)
            if step < 0:
                return tuple(self)[i]
            # leaf by leaf from the one that holds ``start``, so a slice
            # costs the same wherever it starts
            blocks = []
            for base in range(start & ~MASK, stop, WIDTH):
                lo = max(start, base)
                lo += (start - lo) % step
                blocks += self.root[base >> MID_SHIFT][(base >> SHIFT) & MASK][
                    lo - base:stop - base:step]
            return tuple(blocks)
        if i < 0:
            i += self.size
            if i < 0:
                raise IndexError("block index out of range")
        return self.root[i >> MID_SHIFT][(i >> SHIFT) & MASK][i & MASK]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockVector):
            return NotImplemented
        # A mid's == compares its leaves, and a list compares an item to
        # itself by identity first, so shared mids and leaves are skipped.
        return self.size == other.size and all(
            a is b or a == b for a, b in zip(self.root, other.root))

    def __repr__(self) -> str:
        return f"BlockVector({tuple(self)!r})"

    def set(self, i: int, value) -> BlockVector:
        """This vector with block ``0 <= i < len`` replaced: the root, one mid
        and one leaf are copied."""
        root = self.root.copy()
        mid = root[i >> MID_SHIFT] = root[i >> MID_SHIFT].copy()
        leaf = mid[(i >> SHIFT) & MASK] = mid[(i >> SHIFT) & MASK].copy()
        leaf[i & MASK] = value
        new = _new(BlockVector)
        new.root = root
        new.size = self.size
        return new

    def splice(self, start: int, values) -> BlockVector:
        """This vector with ``values`` stored from index ``start`` on, all within
        ``0..len-1``: the root and each touched mid and leaf are copied once,
        and each leaf takes its part of ``values`` as one slice."""
        root, stop = self.root.copy(), start + len(values)
        i, m = start, -1
        while i < stop:  # i is the first index of values in the leaf that holds it
            if i >> MID_SHIFT != m:
                m = i >> MID_SHIFT
                mid = root[m] = root[m].copy()
            j, k, nxt = (i >> SHIFT) & MASK, i & MASK, (i | MASK) + 1
            part = values[i - start:nxt - start]
            leaf = mid[j] = mid[j].copy()
            leaf[k:k + len(part)] = part
            i = nxt
        new = _new(BlockVector)
        new.root = root
        new.size = self.size
        return new

    def diff(self, other: BlockVector):
        """Ascending indices at which the two vectors hold unequal blocks,
        over their common length; shared and equal mids and leaves are skipped."""
        for m, (ma, mb) in enumerate(zip(self.root, other.root)):
            if ma is mb or ma == mb:
                continue
            for j, (la, lb) in enumerate(zip(ma, mb), m << SHIFT):
                if la is lb or la == lb:
                    continue
                for i, (a, b) in enumerate(zip(la, lb), j << SHIFT):
                    if a is not b and a != b:
                        yield i


@dataclass(slots=True)
class MemoryState:
    blocks: BlockVector = ()  # any other sequence of blocks is coerced
    alloc_floor: int = 0  # allocate() never hands out blocks below this index

    def __post_init__(self):
        if not isinstance(self.blocks, BlockVector):
            self.blocks = BlockVector.of(self.blocks)

    def with_blocks(self, blocks: BlockVector) -> MemoryState:
        """This state with ``blocks``, built without ``__post_init__``'s coercion."""
        new = _new(MemoryState)
        new.blocks = blocks
        new.alloc_floor = self.alloc_floor
        return new

    @property
    def size(self) -> int:
        return self.blocks.size

    def addr_of(self, name: str) -> Address:
        """The address of the reserved block ``name``, which follows from the size."""
        return reserved_addresses(self.blocks.size)[name]


# ---------------------------------------------------------------------------
# Operations

def init_mem(size: int) -> MemoryState:
    """Build a fresh memory space: the two flag blocks false, the global
    scope block set, every other block free. The standard library module
    stores its declarations in the remaining reserved blocks.
    """
    if size < RESERVED_BLOCKS + 1:
        raise MemoryConfigError(
            f"memory size {size} is too small: the standard library needs "
            f"{RESERVED_BLOCKS} reserved blocks plus user space"
        )
    names = reserved_addresses(size)
    gdom = names["0xglobal"]
    free = free_value(gdom)
    # Every full all-free leaf is one shared list, and every full mid of
    # them another; nodes are never mutated.
    leaf = [free] * WIDTH
    full, rest = divmod(size, WIDTH)
    mids, tail = divmod(full, WIDTH)
    tail = [leaf] * tail + ([[free] * rest] if rest else [])
    root = [[leaf] * WIDTH] * mids + ([tail] if tail else [])
    blocks = BlockVector(root, size)
    for name, payload in (("0xthrow", BoolPayload(False)), ("0xmodifier", BoolPayload(False)),
                          ("0xglobal", Undef())):
        blocks = blocks.set(names[name].index,
                            MemoryValue(payload, domain=gdom, access=PUBLIC, occupancy=OCCUPY))
    return MemoryState(blocks)


def read(sigma: MemoryState, addr: Address, mode: str = "dir",
         env=None) -> MemoryValue | None:
    i = addr.index
    blocks = sigma.blocks
    if not 0 <= i < blocks.size:
        return None
    block = blocks.root[i >> MID_SHIFT][(i >> SHIFT) & MASK][i & MASK]
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
        return _overwrite(sigma, i, blocks.root[i >> MID_SHIFT][(i >> SHIFT) & MASK][i & MASK],
                          value, env)
    if mode != "dir":
        raise ValueError(f"unknown access mode {mode!r}")
    return sigma.with_blocks(blocks.set(i, value))


def _overwrite(sigma: MemoryState, i: int, old: MemoryValue, value: MemoryValue,
               env) -> MemoryState | None:
    """The chck write of ``value`` over ``old``, the block at index ``i`` of
    ``sigma``, for a caller that has read ``old`` already."""
    if old.occupancy != OCCUPY or not (
            old.access == PUBLIC or env is not None and env.domain == old.domain):
        return None
    # Keep the block's declared ownership, so access control is stable
    # across writers.
    if old.access != value.access or not (
            old.domain is value.domain or old.domain == value.domain):
        value = MemoryValue(value.payload, old.domain, old.access, value.occupancy)
    return sigma.with_blocks(sigma.blocks.set(i, value))


def checked_reader(i: int):
    """``read(sigma, Address(i), "chck", env)`` as a closure ``(K, sigma, env)``,
    for a compiled variable reference: the mid, leaf and slot of ``i`` are
    found once, here, and each call checks the bounds and validates inline."""
    def read_checked(_K, sigma, env, i=i, mid=i >> MID_SHIFT, leaf=(i >> SHIFT) & MASK,
                     slot=i & MASK):
        if 0 <= i < sigma.blocks.size:
            block = sigma.blocks.root[mid][leaf][slot]
            if block.occupancy == OCCUPY and (
                    block.access == PUBLIC or env is not None and env.domain == block.domain):
                return block
        return None
    return read_checked


def checked_writer(i: int):
    """``write(sigma, Address(i), value, "chck", env)`` as a closure ``(sigma,
    value, env)``, for an assignment to block ``i``: the mid, leaf and slot
    of ``i`` are found once, here. It refuses a mapping head, whose chain a
    stored value would cut, with that message, and writes through
    ``_overwrite``; a refused write is None, as ``write``'s is."""
    def write_checked(sigma, value, env, i=i, mid=i >> MID_SHIFT, leaf=(i >> SHIFT) & MASK,
                      slot=i & MASK):
        blocks = sigma.blocks
        if not 0 <= i < blocks.size:
            return None
        old = blocks.root[mid][leaf][slot]
        if type(old.payload) is MapNode:
            return "cannot assign into a mapping head"
        return _overwrite(sigma, i, old, value, env)
    return write_checked


def address_offset(offset: int, addr: Address, size: int) -> Address | None:
    idx = addr.index + offset
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
                base = Address(i - n + 1)
                return base, allocate_at(sigma, base, n)
        else:
            run = 0
    return None


def is_free_run(sigma: MemoryState, base: Address, n: int) -> bool:
    """Whether the n > 0 blocks from ``base`` are in range and free."""
    return n > 0 and 0 <= base.index <= sigma.size - n and all(
        b.occupancy == FREE for b in sigma.blocks[base.index:base.index + n])


def allocate_at(sigma: MemoryState, base: Address, n: int) -> MemoryState | None:
    """Reserve the n contiguous blocks at ``base``, absent unless they are free."""
    return _mark_occupied(sigma, base.index, n) if is_free_run(sigma, base, n) else None


def _mark_occupied(sigma: MemoryState, base: int, n: int) -> MemoryState:
    blocks = sigma.blocks
    return sigma.with_blocks(blocks.splice(base, [
        MemoryValue(Undef(), b.domain, b.access, OCCUPY) for b in blocks[base:base + n]]))


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
        return f"fid:{fun}:receiver={receiver}:args=-"
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
    if isinstance(p, ArrayGroup):
        return f"array-group:dim={p.dim}:group={p.group}"
    return f"<{type(p).__name__}>"


_TWO_DIGITS = tuple(f"{i:02}" for i in range(100))


def dump(sigma: MemoryState) -> str:
    # Rendered by runs, as the module docstring describes; ``sigma`` keeps
    # every id in the memos alive.
    rendered = {}  # id of a block -> its line after the index
    uniform = {}   # id of a leaf or mid -> the one block it holds throughout, or None
    pieces = []

    def text(b):
        t = rendered.get(id(b))
        if t is None:
            t = rendered[id(b)] = (f"{b.occupancy}\t{b.access}\t{b.domain.index}"
                                   f"\t{render_payload(b.payload)}")
        return t

    def one(leaf):
        key = id(leaf)
        if key not in uniform:
            uniform[key] = leaf[0] if len(set(map(id, leaf))) == 1 else None
        return uniform[key]

    run, start = None, 0
    for m, mid in enumerate(sigma.blocks.root):
        key = id(mid)
        if key not in uniform:
            b = one(mid[0])
            uniform[key] = b if b is not None and all(one(leaf) is b for leaf in mid) else None
        # a mid of one block is one span, and any other one span per leaf
        spans = (((m << MID_SHIFT, uniform[key], None),) if uniform[key] is not None else
                 ((j << SHIFT, one(leaf), leaf) for j, leaf in enumerate(mid, m << SHIFT)))
        for base, b, leaf in spans:
            if b is not None and b is run:
                continue
            if run is not None:
                _render_run(pieces, start, base, text(run))
            run, start = b, base
            if b is None:
                pieces += [f"{i}\t{text(blk)}" for i, blk in enumerate(leaf, base)]
    if run is not None:
        _render_run(pieces, start, sigma.size, text(run))
    return "\n".join(pieces)


def _render_run(pieces: list, start: int, stop: int, text: str) -> None:
    """Append the lines of blocks ``start..stop-1``, which all render as
    ``text``: each whole hundred from 100 up is one join over two-digit
    suffixes, and the rest one join over the indices."""
    sep = f"\t{text}\n"
    lo, hi = max(start + -start % 100, 100), stop - stop % 100
    if lo >= hi:
        lo = hi = stop
    if start < lo:
        pieces.append(f"{sep.join(map(str, range(start, lo)))}\t{text}")
    for h in range(lo // 100, hi // 100):
        prefix = str(h)
        pieces.append(f"{prefix}{(sep + prefix).join(_TWO_DIGITS)}\t{text}")
    if hi < stop:
        pieces.append(f"{sep.join(map(str, range(hi, stop)))}\t{text}")
