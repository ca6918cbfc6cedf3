"""Built-in declarations loaded into every memory space.

The library provides the address struct type (fields addr, balance,
send, gas), the message struct type (sender, value, gas), a message
instance block populated per run from the chain context, and the no-op
built-in functions send and transfer with their return slots.
"""

from __future__ import annotations

from .memory import (
    FunctionInfo,
    IntPayload,
    MemoryState,
    MemoryValue,
    StructInstance,
    StructTypeInfo,
    Fid,
    PUBLIC,
    OCCUPY,
    Undef,
    reserved_addresses,
)
from . import memory as gm
from .syntax import Fun, FunStop, StructDecl, Tbool, Tfid, Tstruct, Tuint
from .values import BlockInfo


def standard_library(size: int = gm.DEFAULT_MEMORY_SIZE):
    """The library's declarations: its struct types and built-in functions."""
    names = reserved_addresses(size)
    addr_t = names["0xaddress"]
    msg_t = names["0xmsg"]
    send = names["0xsend"]
    transfer = names["0xtransfer"]
    return [
        StructDecl(addr_t, (
            ("addr", Tuint()),
            ("balance", Tuint()),
            ("send", Tfid(send)),
            ("gas", Tuint()),
        )),
        StructDecl(msg_t, (
            ("sender", Tstruct(addr_t)),
            ("value", Tuint()),
            ("gas", Tuint()),
        )),
        # Built-in calls accept any arguments (params None) and do nothing.
        Fun(send, (), None, (Tbool(),), (FunStop(),), names["0xsend.ret"]),
        Fun(transfer, (), None, (), (FunStop(),), names["0xtransfer.ret"]),
    ]


def fresh_memory(size: int = gm.DEFAULT_MEMORY_SIZE) -> MemoryState:
    """A fresh memory space with the library's struct types, functions and
    their return slots stored in its reserved blocks."""
    sigma = gm.init_mem(size)
    gdom = sigma.addr_of("0xglobal")

    def occupied(addr, payload):
        return addr.index, MemoryValue(payload, domain=gdom, access=PUBLIC, occupancy=OCCUPY)

    writes = []
    for decl in standard_library(size):
        if isinstance(decl, StructDecl):
            writes.append(occupied(decl.type_addr, StructTypeInfo(decl.type_addr, decl.members)))
        else:
            writes += [occupied(decl.name, FunctionInfo(decl.returns, decl.params,
                                                        decl.ret_addr, decl.body)),
                       occupied(decl.ret_addr, Undef())]
    blocks = sigma.blocks
    for i, value in writes:
        blocks = blocks.set(i, value)
    return sigma.with_blocks(blocks)


def sender_instance(binfo: BlockInfo, size: int) -> StructInstance:
    """The caller rendered as an address struct instance."""
    names = reserved_addresses(size)
    return StructInstance(names["0xaddress"], (
        IntPayload(binfo.sender.index, 64, False),
        IntPayload(0, 64, False),
        Fid(names["0xsend"]),
        IntPayload(binfo.gas_price, 64, False),
    ))


def write_message(sigma: MemoryState, binfo: BlockInfo) -> MemoryState:
    """Populate the msg instance block from the chain context."""
    names = reserved_addresses(sigma.size)
    msg = StructInstance(names["0xmsg"], (
        sender_instance(binfo, sigma.size),
        IntPayload(binfo.msg_value, 64, False),
        IntPayload(binfo.gas_price, 64, False),
    ))
    value = MemoryValue(msg, domain=names["0xglobal"], access=PUBLIC, occupancy=OCCUPY)
    return gm.write(sigma, names["msg"], value, "dir")
