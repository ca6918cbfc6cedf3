"""Typed abstract syntax for the contract language.

Types, values, expressions and statements are plain tagged unions. The
static checker gives every expression its result type and rejects trees
the runtime would otherwise have to re-check: mixed-width or
mixed-signedness arithmetic, non-boolean branch conditions, struct arity
and field type mismatches. Programs are flat
statement lists; the next statement to execute is always the head of the
remaining list. Each construct has one statement form: a loop is a
``LoopWhile`` (the binder lowers a ``for`` to its init step and a while
whose body ends with the post step), every ``return`` is a ``Returns``,
a modifier is a ``Fun`` with no modifiers of its own that returns one
``bool``, and only a ``FunCall`` calls a function, so the checker holds
every call, a modifier invocation included, to its callee's arity. The
JSON interchange format is one table, ``FORMAT``, walked by
``program_to_data`` and ``program_from_data``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .memory import (
    Address,
    BoolPayload,
    Fid,
    IntPayload,
    MapNode,
    StructInstance,
    Undef,
)

ARITH_OPS = ("+", "-", "*", "/", "%")
CMP_OPS = ("<", ">", "<=", ">=", "==", "!=")
LOGIC_OPS = ("&&", "||")


class LTypeError(Exception):
    """Static type violation."""


# ---------------------------------------------------------------------------
# Types

class LType:
    pass


@dataclass(frozen=True)
class Tbool(LType):
    pass


@dataclass(frozen=True)
class Tint(LType):
    width: int = 64
    signed: bool = False

    def __post_init__(self):
        _require(self.width % 8 == 0 and 8 <= self.width <= 256,
                 f"unsupported integer width {self.width}")


def Tuint() -> Tint:
    return Tint(64, signed=False)


def int_fits(value: int, t: Tint) -> bool:
    """Whether ``value`` is in the range of the fixed-width type ``t``."""
    lo = -(1 << (t.width - 1)) if t.signed else 0
    return lo <= value < lo + (1 << t.width)


@dataclass(frozen=True)
class Tarray(LType):
    length: int
    element: LType


@dataclass(frozen=True)
class Tmap(LType):
    key: LType
    value: LType


@dataclass(frozen=True)
class Tfid(LType):
    fun: Address | None = None


@dataclass(frozen=True)
class Tstruct(LType):
    type_addr: Address


def array_dims(t: LType) -> tuple[tuple[int, ...], LType]:
    """Peel a nested array type into its dimension vector and base type."""
    dims: list[int] = []
    while isinstance(t, Tarray):
        dims.append(t.length)
        t = t.element
    return tuple(dims), t


def is_normal_type(t: LType) -> bool:
    """Normal types terminate array nesting: no arrays or mappings inside."""
    return isinstance(t, (Tbool, Tint, Tfid, Tstruct))


def type_text(t: LType, struct_names=None) -> str:
    """``t`` as text; ``struct_names`` maps a struct's type address to the
    name it is declared with, and a struct without one reads ``struct@N``."""
    if isinstance(t, Tbool):
        return "bool"
    if isinstance(t, Tint):
        return f"{'int' if t.signed else 'uint'}{t.width}"
    if isinstance(t, Tarray):
        dims, base = array_dims(t)
        return type_text(base, struct_names) + "".join(f"[{d}]" for d in dims)
    if isinstance(t, Tmap):
        return (f"mapping({type_text(t.key, struct_names)}=>"
                f"{type_text(t.value, struct_names)})")
    if isinstance(t, Tfid):
        return f"fid({t.fun.index if t.fun else '-'})"
    if isinstance(t, Tstruct):
        return (struct_names or {}).get(t.type_addr, f"struct@{t.type_addr.index}")
    return f"<{type(t).__name__}>"


# ---------------------------------------------------------------------------
# Values

class LValue:
    pass


@dataclass(frozen=True)
class Vbool(LValue):
    bit: bool


@dataclass(frozen=True)
class Vint(LValue):
    value: int
    width: int = 64
    signed: bool = False


@dataclass
class Varray(LValue):
    # Carries the whole array type so address resolution has the dimension
    # vector without consulting a typing context.
    arr_type: LType = None
    indices: tuple = ()
    base: Address = None


@dataclass
class Vmap(LValue):
    base: Address = None
    keys: tuple = ()          # one key expression per mapping dimension
    key_type: LType = None
    value_type: LType = None


@dataclass(frozen=True)
class Vstruct(LValue):
    type_addr: Address
    inst_addr: Address


@dataclass
class Vfield(LValue):
    """A read of a member path of the struct instance at ``inst_addr``."""
    result_type: LType = None
    type_addr: Address = None
    inst_addr: Address = None
    members: tuple = ()       # nonempty member-name path


# ---------------------------------------------------------------------------
# Expressions

@dataclass
class LExpr:
    # The node's closure, built by the expression layer on first use; never serialized.
    compiled: object = field(default=None, init=False, compare=False, repr=False)


@dataclass
class Econst(LExpr):
    value: LValue


@dataclass
class Evar(LExpr):
    addr: Address | None
    ltype: LType


@dataclass
class Efun(LExpr):
    addr: Address | None
    ltype: LType


@dataclass
class Estruct(LExpr):
    type_addr: Address
    values: tuple = ()


@dataclass
class Ebop(LExpr):
    op: str
    left: LExpr = None
    right: LExpr = None


@dataclass
class Euop(LExpr):
    op: str
    operand: LExpr = None


# ---------------------------------------------------------------------------
# Statements

@dataclass
class LStatement:
    # Whether the statement divides (see ``divides_by_nonliteral``), found by
    # the statement layer on first need; never serialized.
    may_divide: bool | None = field(default=None, init=False, compare=False, repr=False)
    # The node's rule, built by the statement layer on first dispatch; never serialized.
    rule: object = field(default=None, init=False, compare=False, repr=False)


@dataclass
class Contract(LStatement):
    name: Address
    inherits: tuple = ()
    members: tuple = ()  # (member name, member address) pairs


@dataclass
class Var(LStatement):
    access: str | None
    decl: Evar = None


@dataclass
class StructDecl(LStatement):
    type_addr: Address
    members: tuple = ()  # (field name, field type) pairs


@dataclass
class Assign(LStatement):
    lhs: LExpr
    rhs: LExpr


@dataclass
class Returns(LStatement):
    values: tuple = ()


@dataclass
class Throw(LStatement):
    pass


@dataclass
class Snil(LStatement):
    pass


@dataclass
class FunStop(LStatement):
    """End of a function body. A call's copy names the caller's domain,
    which dispatching it restores."""
    caller: Address | None = None


@dataclass
class ModifierGuard(LStatement):
    """Judges the modifier call before it; a call builds it, and no field is serialized."""
    before: object = None  # MemoryState
    call: FunCall | None = None


@dataclass
class Fun(LStatement):
    name: Address
    modifiers: tuple = ()  # FunCall statements that guard each call of the body
    params: tuple = ()     # Evar declarations with pre-assigned addresses
    returns: tuple = ()
    body: tuple = ()
    ret_addr: Address | None = None


@dataclass
class LoopWhile(LStatement):
    cond: LExpr
    body: tuple = ()


@dataclass
class FunCall(LStatement):
    callee: LExpr
    args: tuple = ()


@dataclass
class If(LStatement):
    cond: LExpr
    then: tuple = ()
    orelse: tuple = ()


# ---------------------------------------------------------------------------
# Typing context and checker

@dataclass
class TypeContext:
    vars: dict = field(default_factory=dict)       # Address -> LType
    structs: dict = field(default_factory=dict)    # Address -> member descriptor tuple
    functions: dict = field(default_factory=dict)  # Address -> (param types, return types)
    struct_names: dict = field(default_factory=dict)  # Address -> declared name
    _fun_returns: list = field(default_factory=list)

    def struct_members(self, addr: Address):
        if addr not in self.structs:
            raise LTypeError(f"unknown struct type at {addr}")
        return self.structs[addr]

    def text(self, t: LType) -> str:
        """``t`` as the messages of this checker render it."""
        return type_text(t, self.struct_names)


def _require(cond: bool, msg: str):
    if not cond:
        raise LTypeError(msg)


def _int_kind(t: LType) -> bool:
    return isinstance(t, Tint)


def _types_equal(a: LType, b: LType) -> bool:
    # Function-id types match regardless of which function they point at.
    if isinstance(a, Tfid) and isinstance(b, Tfid):
        return True
    return a == b


def typecheck_expr(e: LExpr, ctx: TypeContext) -> LType:
    """The expression's result type."""
    if isinstance(e, Econst):
        return _value_type(e.value, ctx)
    if isinstance(e, (Evar, Efun)):
        return e.ltype
    if isinstance(e, Estruct):
        members = ctx.struct_members(e.type_addr)
        _require(len(e.values) == len(members),
                 f"struct literal arity {len(e.values)} != {len(members)}")
        for v, (name, mt) in zip(e.values, members):
            vt = _value_type(v, ctx)
            if not _types_equal(vt, mt):
                raise LTypeError(f"struct field {name}: {ctx.text(vt)} != {ctx.text(mt)}")
        return Tstruct(e.type_addr)
    if isinstance(e, Ebop):
        lt = typecheck_expr(e.left, ctx)
        rt = typecheck_expr(e.right, ctx)
        if e.op in ARITH_OPS:
            if not (_int_kind(lt) and lt == rt):
                raise LTypeError(f"arithmetic {e.op} needs one shared integer type, "
                                 f"got {ctx.text(lt)} and {ctx.text(rt)}")
            return lt
        if e.op in CMP_OPS:
            if lt != rt:
                raise LTypeError(f"comparison {e.op} over unequal types "
                                 f"{ctx.text(lt)} and {ctx.text(rt)}")
            if e.op in ("==", "!="):
                if not (_int_kind(lt) or isinstance(lt, Tbool)):
                    raise LTypeError("equality needs integers or booleans, "
                                     f"got {ctx.text(lt)}")
            elif not _int_kind(lt):
                raise LTypeError(f"ordered comparison needs integers, got {ctx.text(lt)}")
            return Tbool()
        if e.op in LOGIC_OPS:
            _require(isinstance(lt, Tbool) and isinstance(rt, Tbool),
                     f"logical {e.op} needs booleans")
            return Tbool()
        raise LTypeError(f"unknown binary operator {e.op!r}")
    if isinstance(e, Euop):
        t = typecheck_expr(e.operand, ctx)
        if e.op == "!":
            _require(isinstance(t, Tbool), "logical not needs a boolean")
            return Tbool()
        if e.op == "neg":
            _require(_int_kind(t) and t.signed, "negation needs a signed integer")
            return t
        raise LTypeError(f"unknown unary operator {e.op!r}")
    raise LTypeError(f"unknown expression {type(e).__name__}")


def _value_type(v: LValue, ctx: TypeContext) -> LType:
    if isinstance(v, Vbool):
        return Tbool()
    if isinstance(v, Vint):
        return Tint(v.width, v.signed)
    if isinstance(v, Varray):
        dims, base = array_dims(v.arr_type)
        _require(bool(dims), "array value over a non-array type")
        _require(len(v.indices) == len(dims),
                 f"index path length {len(v.indices)} != dimension count {len(dims)}")
        _require(is_normal_type(base), "array base must be a normal type")
        for ix in v.indices:
            it = typecheck_expr(ix, ctx)
            _require(_int_kind(it), "array index must be an integer")
        return base
    if isinstance(v, Vmap):
        _require(bool(v.keys), "mapping value needs at least one key")
        kt, vt = v.key_type, v.value_type
        for i, k in enumerate(v.keys):
            at = typecheck_expr(k, ctx)
            if not _types_equal(at, kt):
                raise LTypeError(f"mapping key {i}: {ctx.text(at)} != {ctx.text(kt)}")
            if i + 1 < len(v.keys):
                _require(isinstance(vt, Tmap),
                         "too many keys for the mapping's nesting depth")
                kt, vt = vt.key, vt.value
        return vt
    if isinstance(v, Vstruct):
        return Tstruct(v.type_addr)
    if isinstance(v, Vfield):
        _require(bool(v.members), "field access needs a nonempty member path")
        cur = v.type_addr
        mt: LType | None = None
        for i, name in enumerate(v.members):
            members = ctx.struct_members(cur)
            found = dict(members)
            if name not in found:
                raise LTypeError(f"unknown member {name!r} of {ctx.text(Tstruct(cur))}")
            mt = found[name]
            if i + 1 < len(v.members):
                _require(isinstance(mt, Tstruct),
                         f"member {name!r} is not a struct, cannot descend")
                cur = mt.type_addr
        if not _types_equal(mt, v.result_type):
            raise LTypeError(f"field access result {ctx.text(v.result_type)} != "
                             f"member type {ctx.text(mt)}")
        return v.result_type
    raise LTypeError(f"unknown value {type(v).__name__}")


def typecheck_stmt(stmts, ctx: TypeContext) -> None:
    """Check a statement list, registering declarations as they appear."""
    for s in stmts:
        _check_stmt(s, ctx)


def _declare_var(decl: Evar, ctx: TypeContext):
    _require(decl.addr is not None, "declaration without a bound address")
    _require(decl.addr not in ctx.vars, f"duplicate declaration at {decl.addr}")
    if isinstance(decl.ltype, Tarray):
        dims, base = array_dims(decl.ltype)
        _require(all(d > 0 for d in dims), "array dimensions must be positive")
        _require(is_normal_type(base), "array base must be a normal type")
    ctx.vars[decl.addr] = decl.ltype


def _check_stmt(s: LStatement, ctx: TypeContext) -> None:
    if isinstance(s, Var):
        _require(isinstance(s.decl, Evar), "variable declaration needs a reference")
        _declare_var(s.decl, ctx)
        return
    if isinstance(s, StructDecl):
        ctx.structs[s.type_addr] = tuple(s.members)
        return
    if isinstance(s, Assign):
        rt = typecheck_expr(s.rhs, ctx)
        _require(_is_lvalue_expr(s.lhs), "left side is not assignable")
        lt = typecheck_expr(s.lhs, ctx)
        if not _types_equal(lt, rt):
            raise LTypeError(f"assignment type mismatch: {ctx.text(lt)} != {ctx.text(rt)}")
        return
    if isinstance(s, Returns):
        ts = [typecheck_expr(e, ctx) for e in s.values]
        if ctx._fun_returns:
            rets = ctx._fun_returns[-1]
            _require(len(ts) == len(rets) and
                     all(_types_equal(a, b) for a, b in zip(ts, rets)),
                     "returned values do not match the declared return types")
        return
    if isinstance(s, (Contract, Throw, Snil, FunStop, ModifierGuard)):
        return
    if isinstance(s, If):
        ct = typecheck_expr(s.cond, ctx)
        _require(isinstance(ct, Tbool), "branch condition must be boolean")
        typecheck_stmt(s.then, ctx)
        typecheck_stmt(s.orelse, ctx)
        return
    if isinstance(s, LoopWhile):
        ct = typecheck_expr(s.cond, ctx)
        _require(isinstance(ct, Tbool), "loop condition must be boolean")
        typecheck_stmt(s.body, ctx)
        return
    if isinstance(s, Fun):
        # A library function's params are None: it takes any arguments.
        ptypes = None if s.params is None else tuple(p.ltype for p in s.params)
        ctx.functions[s.name] = (ptypes, tuple(s.returns))
        for p in s.params or ():
            _declare_var(p, ctx)
        for m in s.modifiers:
            _require(isinstance(m, FunCall), "modifier attachments must be calls")
            _check_stmt(m, ctx)
        ctx._fun_returns.append(tuple(s.returns))
        try:
            typecheck_stmt(s.body, ctx)
        finally:
            ctx._fun_returns.pop()
        return
    if isinstance(s, FunCall):
        callee = s.callee
        if isinstance(callee, Efun):
            typecheck_expr(callee, ctx)
            if callee.addr in ctx.functions:
                ptypes, _ = ctx.functions[callee.addr]
                if ptypes is not None:
                    _require(len(s.args) == len(ptypes),
                             f"call arity {len(s.args)} != {len(ptypes)}")
        elif isinstance(callee, Econst) and isinstance(callee.value, Vfield):
            t = typecheck_expr(callee, ctx)
            _require(isinstance(t, Tfid), "called field is not a function")
        else:
            raise LTypeError("call target must be a function reference or field")
        for a in s.args:
            typecheck_expr(a, ctx)
        return
    raise LTypeError(f"unknown statement {type(s).__name__}")


def _is_lvalue_expr(e: LExpr) -> bool:
    if isinstance(e, Evar):
        return True
    return isinstance(e, Econst) and isinstance(e.value, (Varray, Vmap))


def payload_matches_type(payload, t: LType) -> bool:
    """Value-kind form of type preservation, used by the property suites."""
    if isinstance(payload, BoolPayload):
        return isinstance(t, Tbool)
    if isinstance(payload, IntPayload):
        return isinstance(t, Tint) and payload.width == t.width and payload.signed == t.signed
    if isinstance(payload, StructInstance):
        return isinstance(t, Tstruct) and (payload.type_addr is None or
                                           payload.type_addr == t.type_addr)
    if isinstance(payload, Fid):
        return isinstance(t, Tfid)
    if isinstance(payload, MapNode):
        return isinstance(t, Tmap)
    if isinstance(payload, Undef):
        return True  # declared but unset
    return False


# ---------------------------------------------------------------------------
# Interchange format (stable field names, used by emit-ast and oracle --ast)
#
# FORMAT is the one definition of the JSON form of a program. For each node
# class it gives the ``kind`` tag and, for each JSON field in order, the code
# of the value. A field holds the attribute of the same name, except that
# "type" holds ``ltype``. A code is int, bool or str (a JSON scalar of exactly
# that type), ACCESS (a string or null), Address (the block index, or null),
# a node category (LType, LValue, LExpr or LStatement: a nested node of that
# category), a tuple of codes (a fixed-length JSON list, such as a (name,
# address) pair) or a one-element list [code] (a JSON list of items so
# coded). Reading refuses null under any other code, and fields FORMAT does
# not name are ignored. A kind is unique within its category only: "var" is
# an Evar where an expression is expected and a Var where a statement is.

ACCESS = "access"
_ATTRIBUTE = {"type": "ltype"}
_JSON_TYPE = {int: int, bool: bool, str: str, ACCESS: str, Address: int}
_JSON_NAME = {type(None): "null", bool: "a boolean", int: "an integer", float: "a number",
              str: "a string", list: "a list", dict: "an object"}

FORMAT = {
    Tbool: ("bool", {}),
    Tint: ("int", {"width": int, "signed": bool}),
    Tarray: ("array", {"length": int, "element": LType}),
    Tmap: ("map", {"key": LType, "value": LType}),
    Tfid: ("fid", {"fun": Address}),
    Tstruct: ("struct", {"type_addr": Address}),
    Vbool: ("vbool", {"bit": bool}),
    Vint: ("vint", {"value": int, "width": int, "signed": bool}),
    Varray: ("varray", {"arr_type": LType, "indices": [LExpr], "base": Address}),
    Vmap: ("vmap", {"base": Address, "keys": [LExpr], "key_type": LType,
                    "value_type": LType}),
    Vstruct: ("vstruct", {"type_addr": Address, "inst_addr": Address}),
    Vfield: ("vfield", {"result_type": LType, "type_addr": Address, "inst_addr": Address,
                        "members": [str]}),
    Econst: ("const", {"value": LValue}),
    Evar: ("var", {"addr": Address, "type": LType}),
    Efun: ("fun", {"addr": Address, "type": LType}),
    Estruct: ("struct", {"type_addr": Address, "values": [LValue]}),
    Ebop: ("bop", {"op": str, "left": LExpr, "right": LExpr}),
    Euop: ("uop", {"op": str, "operand": LExpr}),
    Contract: ("contract", {"name": Address, "inherits": [Address],
                            "members": [(str, Address)]}),
    Var: ("var", {"access": ACCESS, "decl": LExpr}),
    StructDecl: ("structdecl", {"type_addr": Address, "members": [(str, LType)]}),
    Assign: ("assign", {"lhs": LExpr, "rhs": LExpr}),
    Returns: ("returns", {"values": [LExpr]}),
    Throw: ("throw", {}),
    Snil: ("snil", {}),
    FunStop: ("funstop", {}),
    ModifierGuard: ("modifierguard", {}),
    Fun: ("fun", {"name": Address, "modifiers": [LStatement], "params": [LExpr],
                  "returns": [LType], "body": [LStatement], "ret_addr": Address}),
    LoopWhile: ("while", {"cond": LExpr, "body": [LStatement]}),
    FunCall: ("call", {"callee": LExpr, "args": [LExpr]}),
    If: ("if", {"cond": LExpr, "then": [LStatement], "orelse": [LStatement]}),
}

_KINDS = {(category, kind): cls for cls, (kind, _) in FORMAT.items()
          for category in (LType, LValue, LExpr, LStatement) if issubclass(cls, category)}


def _encode(code, x):
    if x is None or code in (int, bool, str, ACCESS):
        return x
    if isinstance(code, list):
        return [_encode(code[0], item) for item in x]
    if isinstance(code, tuple):
        return [_encode(c, item) for c, item in zip(code, x, strict=True)]
    if code is Address:
        return x.index
    if not isinstance(x, code) or type(x) not in FORMAT:
        raise TypeError(f"cannot serialize {type(x).__name__} as {code.__name__}")
    kind, fields = FORMAT[type(x)]
    return {"kind": kind, **{f: _encode(c, getattr(x, _ATTRIBUTE.get(f, f)))
                             for f, c in fields.items()}}


def _decode(code, d, where="program"):
    if d is None and code in (ACCESS, Address):
        return None
    json_type = list if isinstance(code, (list, tuple)) else _JSON_TYPE.get(code, dict)
    if type(d) is not json_type:
        raise ValueError(f"{where}: expected {_JSON_NAME[json_type]}, "
                         f"got {_JSON_NAME.get(type(d), type(d).__name__)}")
    if json_type is list:
        codes = code * len(d) if isinstance(code, list) else code
        return tuple(_decode(c, item, where) for c, item in zip(codes, d, strict=True))
    if json_type is not dict:
        return Address(d) if code is Address else d
    cls = _KINDS.get((code, d["kind"]))
    if cls is None:
        raise ValueError(f"unknown {code.__name__[1:].lower()} kind {d['kind']!r}")
    kind, fields = FORMAT[cls]
    return cls(**{_ATTRIBUTE.get(f, f): _decode(c, d[f], f"{kind}.{f}")
                  for f, c in fields.items()})


def divides_by_nonliteral(node) -> bool:
    """Whether ``node`` or an expression or value under its fields, by
    ``FORMAT``, is a ``/`` or ``%`` whose divisor is not an integer literal
    nonzero at its width. Statement fields, such as an ``If``'s arms or a
    loop's body, are not walked: those statements are dispatched on their own."""
    if type(node) is Ebop and node.op in ("/", "%"):
        d = node.right
        if not (type(d) is Econst and type(d.value) is Vint
                and d.value.value % (1 << d.value.width)):
            return True
    for name, code in FORMAT[type(node)][1].items():
        if code in (LExpr, LValue, [LExpr], [LValue]):
            x = getattr(node, name)
            if x is not None and any(map(divides_by_nonliteral,
                                         x if isinstance(code, list) else (x,))):
                return True
    return False


def program_to_data(stmts) -> list:
    return [_encode(LStatement, s) for s in stmts]


def program_from_data(items) -> list[LStatement]:
    return [_decode(LStatement, d) for d in items]
