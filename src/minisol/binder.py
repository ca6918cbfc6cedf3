"""Identifier-to-address binding and lowering to the typed statement form.

Every declared identifier gets a unique block address, assigned in
declaration order ascending from the bottom of user memory: first the
built-in ``now`` block, then per contract its info block and members
(arrays claim their whole contiguous run), then each function's
parameters, return slots and locals. Dynamic allocations at run time
start above the bound region, so they can never collide with a block
that is still waiting for its declaration.

Built-in names: ``now`` (block timestamp), ``msg`` (message instance),
``modifier_ok`` (the modifier flag block).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import memory as gm
from .layout import array_layout
from .memory import Address
from .parser import (
    EBin,
    EBool,
    ECall,
    EId,
    EIndex,
    EMember,
    ENum,
    EUn,
    SAssign,
    SCallStmt,
    SContract,
    SFor,
    SFunDecl,
    SIf,
    SModifierDecl,
    SourceProgram,
    SReturn,
    SSkip,
    SStructDecl,
    SThrow,
    SVarDecl,
    SWhile,
    TArrayOf,
    TMapping,
    TName,
    _INT_TYPE_RE,
)
from .stdlib import standard_library
from .syntax import (
    ARITH_OPS,
    Assign,
    Contract,
    Ebop,
    Econst,
    Efun,
    Euop,
    Evar,
    Fun,
    FunCall,
    If,
    LTypeError,
    LoopWhile,
    Returns,
    Snil,
    StructDecl,
    Tarray,
    Tbool,
    Tfid,
    Throw,
    Tint,
    Tmap,
    Tstruct,
    TypeContext,
    Var,
    Varray,
    Vbool,
    Vfield,
    Vint,
    Vmap,
    Vstruct,
    array_dims,
    int_fits,
    type_text,
    typecheck_stmt,
)


class BindError(Exception):
    def __init__(self, msg: str, pos=None):
        super().__init__(msg if pos is None else f"{msg} (line {pos[0]}, column {pos[1]})")
        self.msg = msg
        self.pos = pos


@dataclass
class FunRecord:
    addr: Address
    params: list  # (name, LType, Address)
    is_modifier: bool = False


@dataclass
class BoundProgram:
    decls: list
    bindings: dict
    floor: int
    mem_size: int
    functions: dict            # name -> FunRecord
    binder: "Binder" = field(repr=False, default=None)


class Binder:
    def __init__(self, mem_size: int):
        self.mem_size = mem_size
        self.reserved = gm.reserved_addresses(mem_size)
        self.cursor = 0
        self.bindings: dict[str, Address] = {}
        self.globals: dict[str, tuple[Address, object]] = {}
        self.structs: dict[str, Address] = {}
        self.struct_members: dict[Address, tuple] = {}
        self.contracts: dict[str, Address] = {}
        self.functions: dict[str, FunRecord] = {}
        self.locals: dict[str, tuple[Address, object]] = {}  # active function scope
        self.scope_name = ""
        self._seed_stdlib()

    def _seed_stdlib(self):
        for stmt in standard_library(self.mem_size):
            if isinstance(stmt, StructDecl):
                self.struct_members[stmt.type_addr] = tuple(stmt.members)
        self.structs["address"] = self.reserved["0xaddress"]
        self.msg_type = self.reserved["0xmsg"]
        self.msg_addr = self.reserved["msg"]
        # The event stub is callable by name and ignores its arguments.
        self.functions["Transfer"] = FunRecord(self.reserved["0xtransfer"], [])

    # -- address allocation --------------------------------------------------

    def _claim(self, name: str, blocks: int, pos=None) -> Address:
        base = self.cursor
        if base + blocks > self.mem_size - gm.RESERVED_BLOCKS:
            raise BindError("address space exhausted; raise --mem-size", pos)
        self.cursor += blocks
        addr = Address(base)
        # First binding of a name wins; later same-named locals remain
        # reachable through their qualified form only.
        if name is not None and name not in self.bindings:
            self.bindings[name] = addr
        return addr

    def _bind_unique(self, table: dict, name: str, value, pos):
        if name in table:
            raise BindError(f"duplicate identifier {name!r} in one scope", pos)
        table[name] = value

    # -- types ---------------------------------------------------------------

    def resolve_type(self, t, pos=None):
        if isinstance(t, TName):
            m = _INT_TYPE_RE.match(t.name)
            if m:
                width = int(m.group(2)) if m.group(2) else 64
                try:
                    return Tint(width, signed=(m.group(1) == ""))
                except LTypeError as exc:
                    raise BindError(str(exc), t.pos) from None
            if t.name == "bool":
                return Tbool()
            if t.name == "address":
                return Tstruct(self.reserved["0xaddress"])
            if t.name in self.structs:
                return Tstruct(self.structs[t.name])
            raise BindError(f"unknown type {t.name!r}", t.pos)
        if isinstance(t, TMapping):
            return Tmap(self.resolve_type(t.key), self.resolve_type(t.value))
        if isinstance(t, TArrayOf):
            base = self.resolve_type(t.base)
            for size in reversed(t.sizes):
                base = Tarray(size, base)
            return base
        raise BindError("unresolvable type", pos)

    def blocks_for(self, ltype) -> int:
        if isinstance(ltype, Tarray):
            dims, _ = array_dims(ltype)
            return array_layout(dims).array_size
        return 1

    def struct_names(self) -> dict:
        """The declared name of each struct type address, ``address`` included."""
        return {a: n for n, a in self.structs.items()}

    # -- name lookup -----------------------------------------------------------

    def lookup(self, name: str, pos=None):
        """Resolve a name to (address, type); locals shadow globals."""
        if name in self.locals:
            return self.locals[name]
        if name in self.globals:
            return self.globals[name]
        if name == "modifier_ok":
            return self.reserved["0xmodifier"], Tbool()
        raise BindError(f"unknown identifier {name!r}", pos)

    def field_walk(self, type_addr: Address, names, pos):
        """Member types along a path; returns the final member type."""
        cur = type_addr
        mt = None
        for i, n in enumerate(names):
            members = self.struct_members.get(cur)
            if members is None:
                raise BindError(f"unknown struct type at {cur}", pos)
            table = dict(members)
            if n not in table:
                raise BindError(f"no member {n!r} in struct@{cur.index}", pos)
            mt = table[n]
            if i + 1 < len(names):
                if not isinstance(mt, Tstruct):
                    raise BindError(f"member {n!r} is not a struct", pos)
                cur = mt.type_addr
        return mt

    # -- expressions -----------------------------------------------------------

    def lower_expr(self, e):
        if isinstance(e, ENum):
            # Unless its target types it, a literal is a uint64, or an int64 if negative.
            return _literal(e, Tint(64, signed=e.value < 0))
        if isinstance(e, EBool):
            return Econst(Vbool(e.value))
        if isinstance(e, EId):
            if e.name == "msg":
                return Econst(Vstruct(self.msg_type, self.msg_addr))
            addr, t = self.lookup(e.name, e.pos)
            return Evar(addr, t)
        if isinstance(e, EBin):
            # A bare integer literal beside an assignable operand, or beside
            # arithmetic over one, takes its type.
            if isinstance(e.left, ENum):
                right = self.lower_expr(e.right)
                return Ebop(e.op, self._lower_value(e.left, right), right)
            left = self.lower_expr(e.left)
            return Ebop(e.op, left, self._lower_value(e.right, left))
        if isinstance(e, EUn):
            return Euop(e.op, self.lower_expr(e.operand))
        if isinstance(e, EIndex):
            return self._lower_index(e)
        if isinstance(e, EMember):
            return self._lower_member(e)
        if isinstance(e, ECall):
            raise BindError("a call is a statement of its own and cannot appear "
                            "inside an expression", e.pos)
        raise BindError(f"cannot lower expression {type(e).__name__}", getattr(e, "pos", None))

    def _index_chain(self, e: EIndex):
        indices = []
        node = e
        while isinstance(node, EIndex):
            indices.append(node.index)
            node = node.base
        indices.reverse()
        return node, indices

    def _lower_index(self, e: EIndex):
        base, indices = self._index_chain(e)
        if not isinstance(base, EId):
            raise BindError("only named arrays and mappings can be indexed", e.pos)
        addr, t = self.lookup(base.name, e.pos)
        lowered = tuple(self.lower_expr(i) for i in indices)
        if isinstance(t, Tarray):
            return Econst(Varray(t, lowered, addr))
        if isinstance(t, Tmap):
            return Econst(Vmap(addr, lowered, t.key, t.value))
        raise BindError(f"{base.name!r} is neither an array nor a mapping", e.pos)

    def _member_chain(self, e: EMember):
        names = []
        node = e
        while isinstance(node, EMember):
            names.append(node.name)
            node = node.base
        names.reverse()
        return node, names

    def _lower_member(self, e: EMember):
        base, names = self._member_chain(e)
        if not isinstance(base, EId):
            raise BindError("member access needs a named struct value", e.pos)
        if base.name == "msg":
            type_addr, inst = self.msg_type, self.msg_addr
        else:
            inst, t = self.lookup(base.name, e.pos)
            if not isinstance(t, Tstruct):
                raise BindError(f"{base.name!r} is not a struct", e.pos)
            type_addr = t.type_addr
        result = self.field_walk(type_addr, names, e.pos)
        return Econst(Vfield(result, type_addr, inst, tuple(names)))

    # -- statements --------------------------------------------------------------

    def lower_body(self, stmts) -> list:
        out = []
        for s in stmts:
            out.extend(self.lower_stmt(s))
        return out

    def lower_stmt(self, s) -> list:
        if isinstance(s, SSkip):
            return [Snil()]
        if isinstance(s, SThrow):
            return [Throw()]
        if isinstance(s, SVarDecl):
            return self._lower_local_decl(s)
        if isinstance(s, SAssign):
            return [self._lower_assign(s)]
        if isinstance(s, SCallStmt):
            return [self._lower_call(s.call)]
        if isinstance(s, SIf):
            return [If(self.lower_expr(s.cond),
                       tuple(self.lower_body(s.then)),
                       tuple(self.lower_body(s.orelse)) or (Snil(),))]
        if isinstance(s, SWhile):
            return [LoopWhile(self.lower_expr(s.cond), tuple(self.lower_body(s.body)))]
        if isinstance(s, SFor):
            # for (init; cond; post) body  ==>  init; while (cond) { body; post }
            init = self.lower_stmt(s.init) if s.init is not None else []
            post = self.lower_stmt(s.post) if s.post is not None else []
            if len(post) > 1:
                raise BindError("loop post step must be a single statement", s.pos)
            return [*init, LoopWhile(self.lower_expr(s.cond),
                                     (*self.lower_body(s.body), *post))]
        if isinstance(s, SReturn):
            return [Returns(tuple(self.lower_expr(v) for v in s.values))]
        raise BindError(f"cannot lower statement {type(s).__name__}", getattr(s, "pos", None))

    def _lower_local_decl(self, s: SVarDecl) -> list:
        ltype = self.resolve_type(s.vtype, s.pos)
        addr = self._claim(f"{self.scope_name}.{s.name}" if self.scope_name else s.name,
                           self.blocks_for(ltype), s.pos)
        self._bind_unique(self.locals if self.scope_name else self.globals,
                          s.name, (addr, ltype), s.pos)
        decl = Var(s.access, Evar(addr, ltype))
        if s.init is None:
            return [decl]
        return [decl, self._lower_init(addr, ltype, s.init)]

    def _lower_init(self, addr: Address, ltype, init) -> Assign:
        target = Evar(addr, ltype)
        return Assign(target, self._lower_value(init, target))

    def _lower_value(self, e, target):
        """The value assigned to ``target``, or the operand beside it: a bare
        integer literal, optionally negated, takes the target's integer type."""
        t = operand_type(target)
        if isinstance(e, ENum) and isinstance(t, Tint):
            return _literal(e, t)
        return self.lower_expr(e)

    def _lower_assign(self, s: SAssign):
        target = self.lower_expr(s.target)
        value = self._lower_value(s.value, target)
        if s.op != "=":
            value = Ebop(s.op[0], self.lower_expr(s.target), value)
        return Assign(target, value)

    def _lower_call(self, call: ECall):
        args = tuple(self.lower_expr(a) for a in call.args)
        target = call.target
        if isinstance(target, EId):
            if target.name in self.functions:
                rec = self.functions[target.name]
                return FunCall(Efun(rec.addr, Tfid(rec.addr)), args)
            raise BindError(f"unknown function {target.name!r}", call.pos)
        if isinstance(target, EMember):
            lowered = self._lower_member(target)
            vf = lowered.value
            if not isinstance(vf.result_type, Tfid):
                raise BindError("called member is not a function", call.pos)
            return FunCall(lowered, args)
        raise BindError("unsupported call target", call.pos)

    # -- declarations --------------------------------------------------------------

    def bind_program(self, sp: SourceProgram) -> list:
        decls: list = []
        now_addr = self._claim("now", 1)
        self._bind_unique(self.globals, "now", (now_addr, Tint(64, False)), None)
        decls.append(Var("public", Evar(now_addr, Tint(64, False))))
        for c in sp.contracts:
            decls.extend(self._bind_contract(c))
        return decls

    def _bind_contract(self, c: SContract) -> list:
        caddr = self._claim(c.name, 1, c.pos)
        self._bind_unique(self.contracts, c.name, caddr, c.pos)
        inherits = []
        for base in c.inherits:
            if base not in self.contracts:
                raise BindError(f"inherited contract {base!r} is not declared yet", c.pos)
            inherits.append(self.contracts[base])

        member_index = []
        body_stmts = []
        fun_stmts = []
        for m in c.members:
            if isinstance(m, SStructDecl):
                taddr = self._claim(m.name, 1, m.pos)
                self._bind_unique(self.structs, m.name, taddr, m.pos)
                members = tuple((fname, self.resolve_type(ft, m.pos))
                                for ft, fname in m.fields)
                self.struct_members[taddr] = members
                member_index.append((m.name, taddr))
                body_stmts.append(StructDecl(taddr, members))
            elif isinstance(m, SVarDecl):
                ltype = self.resolve_type(m.vtype, m.pos)
                addr = self._claim(m.name, self.blocks_for(ltype), m.pos)
                self._bind_unique(self.globals, m.name, (addr, ltype), m.pos)
                member_index.append((m.name, addr))
                body_stmts.append(Var(m.access, Evar(addr, ltype)))
                if m.init is not None:
                    body_stmts.append(self._lower_init(addr, ltype, m.init))
            elif isinstance(m, (SFunDecl, SModifierDecl)):
                fun_stmts.append(self._bind_callable(m, member_index))
            else:
                raise BindError("unsupported contract member", getattr(m, "pos", None))

        contract_stmt = Contract(caddr, tuple(inherits), tuple(member_index))
        return [contract_stmt] + body_stmts + fun_stmts

    def _bind_callable(self, m, member_index) -> Fun:
        """A function, or a modifier: a function with no modifiers of its own
        that returns one ``bool``."""
        modifier = isinstance(m, SModifierDecl)
        name_addr = self._claim(m.name, 1, m.pos)
        member_index.append((m.name, name_addr))
        params = []
        self.locals = {}
        self.scope_name = m.name
        try:
            param_decls = []
            for ptype, pname in m.params:
                lt = self.resolve_type(ptype, m.pos)
                paddr = self._claim(f"{m.name}.{pname}", 1, m.pos)
                self._bind_unique(self.locals, pname, (paddr, lt), m.pos)
                params.append((pname, lt, paddr))
                param_decls.append(Evar(paddr, lt))
            if modifier:
                returns: tuple = (Tbool(),)
            else:
                returns = tuple(self.resolve_type(rt, m.pos) for rt in m.returns)
            ret_addr = self._claim(f"{m.name}.__ret", max(1, len(returns)), m.pos)
            rec = FunRecord(name_addr, params, modifier)
            self._bind_unique(self.functions, m.name, rec, m.pos)
            body = tuple(self.lower_body(m.body))
            mod_calls = []
            for mod_name, mod_args in () if modifier else m.modifiers:
                if mod_name not in self.functions or not self.functions[mod_name].is_modifier:
                    raise BindError(f"unknown modifier {mod_name!r}", m.pos)
                mrec = self.functions[mod_name]
                mod_calls.append(FunCall(Efun(mrec.addr, Tfid(mrec.addr)),
                                         tuple(self.lower_expr(a) for a in mod_args)))
            return Fun(name_addr, tuple(mod_calls), tuple(param_decls),
                       returns, body, ret_addr)
        finally:
            self.locals = {}
            self.scope_name = ""


def _literal(e: ENum, t: Tint) -> Econst:
    if not int_fits(e.value, t):
        raise BindError(f"integer literal {e.value} does not fit in {type_text(t)}", e.pos)
    return Econst(Vint(e.value, t.width, t.signed))


def assigned_type(target):
    """The type of the block an assignable target (a variable, an array
    element or a mapping entry) names, where its form gives one."""
    if isinstance(target, Evar):
        return target.ltype
    v = target.value if isinstance(target, Econst) else None
    if isinstance(v, Varray):
        dims, base = array_dims(v.arr_type)
        return base if len(v.indices) == len(dims) else None
    if isinstance(v, Vmap):
        t = v.value_type
        for _ in v.keys[1:]:
            t = t.value if isinstance(t, Tmap) else None
        return t
    return None


def operand_type(e):
    """The type of an assignable ``e``, or of arithmetic over an assignable
    operand, where its form gives one."""
    if isinstance(e, Ebop) and e.op in ARITH_OPS:
        return operand_type(e.left) or operand_type(e.right)
    if isinstance(e, Euop) and e.op == "neg":
        return operand_type(e.operand)
    return assigned_type(e)


def bind_addresses(sp: SourceProgram, mem_size: int = gm.DEFAULT_MEMORY_SIZE) -> BoundProgram:
    """Assign every identifier a unique address and produce the typed,
    typechecked program."""
    binder = Binder(mem_size)
    decls = binder.bind_program(sp)

    ctx = TypeContext(struct_names=binder.struct_names())
    ctx.vars[binder.reserved["msg"]] = Tstruct(binder.reserved["0xmsg"])
    ctx.vars[binder.reserved["0xmodifier"]] = Tbool()
    typecheck_stmt([*standard_library(mem_size), *decls], ctx)

    return BoundProgram(
        decls=decls,
        bindings=dict(binder.bindings),
        floor=binder.cursor,
        mem_size=mem_size,
        functions=dict(binder.functions),
        binder=binder,
    )
