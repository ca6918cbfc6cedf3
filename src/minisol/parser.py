"""Hand-rolled lexer and recursive-descent parser for the surface
contract language (``.lls`` files).

The parser produces an untyped surface tree with source positions; the
binder turns it into the typed statement form. Grammar summary (see the
README for the full reference):

    program    := contract*
    contract   := "contract" NAME ("is" NAME ("," NAME)*)? "{" member* "}"
    member     := struct | modifier | function | vardecl
    vardecl    := type access? NAME ("=" expr)? ";"
    function   := "function" NAME "(" params? ")" header* ("returns" "(" types ")")? block
    modifier   := "modifier" NAME "(" params? ")" block
    stmt       := vardecl | if | while | for | throw | return | call/assign | ";"

Binary operators are parsed by precedence climbing over ``_BINARY``:
``||``, then ``&&``, then the non-associative comparisons, then additive,
then multiplicative. Unary ``!``/``-`` and postfix index/member/call bind
tighter still.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.msg = msg
        self.line = line
        self.col = col


KEYWORDS = {
    "contract", "is", "struct", "modifier", "function", "returns",
    "public", "private", "internal", "if", "else", "for", "while",
    "throw", "return", "true", "false", "mapping",
}

# ``skip`` takes a run of whitespace and closed comments; ``open`` is a
# ``/*`` that no ``*/`` closes, and ``bad`` any other character.
_TOKEN_RE = re.compile(r"""
    (?P<skip>(?:\s+|//[^\n]*|/\*.*?\*/)+)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<open>/\*)
  | (?P<op>\|\||&&|=>|<=|>=|==|!=|\+=|-=|\*=|/=|[-+*/%<>=!.,;:(){}\[\]])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str  # num | ident | keyword | op | eof
    text: str
    line: int
    col: int
    key: str | None  # the text of an op or keyword token, else None


_new_token = tuple.__new__  # builds a Token without a Python-level __new__


def lex(text: str) -> list[Token]:
    """Tokens of ``text``, ending in one ``eof`` token."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = m.group()
        if kind == "skip":
            last = tok.rfind("\n")
            if last >= 0:
                line += tok.count("\n")
                line_start = m.start() + last + 1
            continue
        col = m.start() - line_start + 1
        key = None
        if kind == "op":
            key = tok
        elif kind == "ident":
            if tok in KEYWORDS:
                kind, key = "keyword", tok
        elif kind == "open":
            raise ParseError("unterminated comment", line, col)
        elif kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", line, col)
        tokens.append(_new_token(Token, (kind, tok, line, col, key)))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1, None))
    return tokens


def _found(tok: Token) -> str:
    """The token an error stopped at, as its message names it."""
    return "end of input" if tok.kind == "eof" else repr(tok.text)


# ---------------------------------------------------------------------------
# Surface tree

@dataclass
class SType:
    pass


@dataclass
class TName(SType):
    name: str
    pos: tuple = (0, 0)


@dataclass
class TMapping(SType):
    key: SType
    value: SType
    pos: tuple = (0, 0)


@dataclass
class TArrayOf(SType):
    base: SType
    sizes: list = field(default_factory=list)
    pos: tuple = (0, 0)


@dataclass
class SExpr:
    pass


@dataclass
class EId(SExpr):
    name: str
    pos: tuple = (0, 0)


@dataclass
class ENum(SExpr):
    value: int
    pos: tuple = (0, 0)


@dataclass
class EBool(SExpr):
    value: bool
    pos: tuple = (0, 0)


@dataclass
class EBin(SExpr):
    op: str
    left: SExpr = None
    right: SExpr = None
    pos: tuple = (0, 0)


@dataclass
class EUn(SExpr):
    op: str
    operand: SExpr = None
    pos: tuple = (0, 0)


@dataclass
class EIndex(SExpr):
    base: SExpr
    index: SExpr = None
    pos: tuple = (0, 0)


@dataclass
class EMember(SExpr):
    base: SExpr
    name: str = ""
    pos: tuple = (0, 0)


@dataclass
class ECall(SExpr):
    target: SExpr
    args: list = field(default_factory=list)
    pos: tuple = (0, 0)


@dataclass
class SStmt:
    pass


@dataclass
class SVarDecl(SStmt):
    vtype: SType
    access: str | None
    name: str
    init: SExpr | None = None
    pos: tuple = (0, 0)


@dataclass
class SAssign(SStmt):
    target: SExpr
    op: str = "="
    value: SExpr = None
    pos: tuple = (0, 0)


@dataclass
class SCallStmt(SStmt):
    call: ECall
    pos: tuple = (0, 0)


@dataclass
class SIf(SStmt):
    cond: SExpr
    then: list = field(default_factory=list)
    orelse: list = field(default_factory=list)
    pos: tuple = (0, 0)


@dataclass
class SWhile(SStmt):
    cond: SExpr
    body: list = field(default_factory=list)
    pos: tuple = (0, 0)


@dataclass
class SFor(SStmt):
    init: SStmt | None
    cond: SExpr = None
    post: SStmt | None = None
    body: list = field(default_factory=list)
    pos: tuple = (0, 0)


@dataclass
class SThrow(SStmt):
    pos: tuple = (0, 0)


@dataclass
class SReturn(SStmt):
    values: list = field(default_factory=list)
    pos: tuple = (0, 0)


@dataclass
class SSkip(SStmt):
    pos: tuple = (0, 0)


@dataclass
class SStructDecl(SStmt):
    name: str
    fields: list = field(default_factory=list)  # (SType, name) pairs
    pos: tuple = (0, 0)


@dataclass
class SModifierDecl(SStmt):
    name: str
    params: list = field(default_factory=list)
    body: list = field(default_factory=list)
    pos: tuple = (0, 0)


@dataclass
class SFunDecl(SStmt):
    name: str
    params: list = field(default_factory=list)   # (SType, name)
    modifiers: list = field(default_factory=list)  # (name, [SExpr]) pairs
    returns: list = field(default_factory=list)
    body: list = field(default_factory=list)
    pos: tuple = (0, 0)


@dataclass
class SContract:
    name: str
    inherits: list = field(default_factory=list)
    members: list = field(default_factory=list)
    pos: tuple = (0, 0)


@dataclass
class SourceProgram:
    contracts: list = field(default_factory=list)


_INT_TYPE_RE = re.compile(r"^(u?)int(\d*)$")

# Binary operators by precedence, loosest first. Comparisons do not
# associate: ``a < b < c`` stops after ``a < b``.
_BINARY = {"||": 1, "&&": 2,
           "<": 3, ">": 3, "<=": 3, ">=": 3, "==": 3, "!=": 3,
           "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}
_COMPARE = 3
_TIGHTEST = 5

_ACCESS = ("public", "private", "internal")
_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=")

# The most parentheses, brackets, argument lists and prefix operators an
# operand may sit inside, the most nodes from the root of an expression
# tree to a leaf, and the most if, while and for statements a statement
# may sit inside. It keeps the parser, the binder, the type checker and
# evaluation within Python's default recursion limit.
MAX_NESTING = 100
_TOO_DEEP = f"expression nested more than {MAX_NESTING} levels deep"
_TOO_DEEP_STMT = f"statements nested more than {MAX_NESTING} levels deep"


def _names_builtin_type(name: str) -> bool:
    return name in ("bool", "address") or _INT_TYPE_RE.match(name) is not None


def _check_depth(root: SExpr) -> None:
    """Reject a tree deeper than MAX_NESTING at its leftmost node that is
    too deep, walking it level by level without recursion."""
    queue = deque([(root, 1)])
    while queue:
        node, depth = queue.popleft()
        if depth > MAX_NESTING:
            raise ParseError(_TOO_DEEP, *node.pos)
        for value in vars(node).values():
            for child in value if isinstance(value, list) else (value,):
                if isinstance(child, SExpr):
                    queue.append((child, depth + 1))


class Parser:
    def __init__(self, tokens: list[Token]):
        # A second eof lets ``peek(1)`` look past the end unclamped.
        self.tokens = tokens + tokens[-1:]
        self.i = 0
        self.depth = 0  # operands open around the current one
        self.nest = 0   # if/while/for statements open around the current one

    # -- token plumbing -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.i + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at(self, key: str) -> bool:
        return self.tokens[self.i].key == key

    def accept(self, key: str) -> bool:
        if self.tokens[self.i].key == key:
            self.i += 1
            return True
        return False

    def expect(self, key: str) -> Token:
        tok = self.tokens[self.i]
        if tok.key != key:
            raise ParseError(f"expected {key!r}, found {_found(tok)}", tok.line, tok.col)
        self.i += 1
        return tok

    def ident(self, what: str) -> str:
        tok = self.tokens[self.i]
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, found {_found(tok)}", tok.line, tok.col)
        self.i += 1
        return tok.text

    def err(self, msg: str):
        tok = self.tokens[self.i]
        raise ParseError(msg, tok.line, tok.col)

    # -- program ------------------------------------------------------------

    def program(self) -> SourceProgram:
        out = SourceProgram()
        while self.peek().kind != "eof":
            out.contracts.append(self.contract())
        return out

    def contract(self) -> SContract:
        tok = self.expect("contract")
        name = self.ident("contract name")
        inherits = []
        if self.accept("is"):
            inherits.append(self.ident("base contract"))
            while self.accept(","):
                inherits.append(self.ident("base contract"))
        self.expect("{")
        members: list = []
        while not self.accept("}"):
            members.append(self.member())
        return SContract(name, inherits, members, (tok.line, tok.col))

    def member(self):
        tok, nxt = self.peek(), self.peek(1)
        if tok.key == "struct":
            return self.struct_decl()
        if tok.key == "modifier":
            return self.modifier_decl()
        if tok.key == "function":
            return self.fun_decl()
        # A user struct type in a declaration: "Name ident" or "Name[".
        if tok.key == "mapping" or tok.kind == "ident" and (
                _names_builtin_type(tok.text) or nxt.kind == "ident" or nxt.key == "["):
            return self.var_decl()
        self.err(f"expected a contract member, found {_found(tok)}")

    def struct_decl(self) -> SStructDecl:
        tok = self.expect("struct")
        name = self.ident("struct name")
        self.expect("{")
        fields = []
        while not self.accept("}"):
            fields.append((self.type_ref(), self.ident("field name")))
            self.expect(";")
        return SStructDecl(name, fields, (tok.line, tok.col))

    def modifier_decl(self) -> SModifierDecl:
        tok = self.expect("modifier")
        name = self.ident("modifier name")
        params = self.param_list()
        return SModifierDecl(name, params, self.block(), (tok.line, tok.col))

    def fun_decl(self) -> SFunDecl:
        tok = self.expect("function")
        name = self.ident("function name")
        params = self.param_list()
        modifiers = []
        returns = []
        while True:
            head, nxt = self.peek(), self.peek(1)
            if head.key in _ACCESS:
                self.next()  # a function's access keyword has no effect
            elif head.key == "returns":
                self.next()
                self.expect("(")
                returns.append(self.type_ref())
                while self.accept(","):
                    returns.append(self.type_ref())
                self.expect(")")
            elif head.kind == "ident" and (nxt.key in ("(", "{") or nxt.kind == "ident"):
                # modifier invocation, optionally with arguments
                self.next()
                modifiers.append((head.text, self.expr_list(")") if self.accept("(") else []))
            else:
                break
        body = self.block()
        return SFunDecl(name, params, modifiers, returns, body,
                        (tok.line, tok.col))

    def param_list(self):
        self.expect("(")
        params = []
        if not self.accept(")"):
            while True:
                params.append((self.type_ref(), self.ident("parameter name")))
                if not self.accept(","):
                    break
            self.expect(")")
        return params

    def var_decl(self) -> SVarDecl:
        tok = self.peek()
        vtype = self.type_ref()
        access = self.next().text if self.peek().key in _ACCESS else None
        name = self.ident("variable name")
        init = self.expr() if self.accept("=") else None
        self.expect(";")
        return SVarDecl(vtype, access, name, init, (tok.line, tok.col))

    def type_ref(self) -> SType:
        tok = self.peek()
        if self.accept("mapping"):
            self.expect("(")
            key = self.type_ref()
            self.expect("=>")
            value = self.type_ref()
            self.expect(")")
            base: SType = TMapping(key, value, (tok.line, tok.col))
        else:
            base = TName(self.ident("type name"), (tok.line, tok.col))
        sizes = []
        while self.accept("["):
            if self.peek().kind != "num":
                self.err("array types need a constant dimension length")
            sizes.append(int(self.next().text))
            self.expect("]")
        if sizes:
            return TArrayOf(base, sizes, (tok.line, tok.col))
        return base

    # -- statements ----------------------------------------------------------

    def block(self) -> list:
        self.expect("{")
        out = []
        while not self.accept("}"):
            out.append(self.stmt())
        return out

    def stmt(self) -> SStmt:
        tok, nxt = self.peek(), self.peek(1)
        key, pos = tok.key, (tok.line, tok.col)
        if key == ";":
            self.next()
            return SSkip(pos)
        if key in ("if", "while", "for"):
            if self.nest == MAX_NESTING:
                raise ParseError(_TOO_DEEP_STMT, *pos)
            self.nest += 1
            if key == "if":
                node = self.if_stmt()
            elif key == "for":
                node = self.for_stmt()
            else:
                self.next()
                node = SWhile(self.paren_expr(), self.block(), pos)
            self.nest -= 1
            return node
        if key == "throw":
            self.next()
            self.expect(";")
            return SThrow(pos)
        if key == "return":
            self.next()
            start, values = self.i, []
            if self.accept("("):
                values = self.exprs()
                self.expect(")")
                if len(values) == 1 and not self.at(";"):
                    self.i, values = start, []  # "(1 + 2) * 3": they group an operand
            if not values and not self.at(";"):
                values = self.exprs()
            self.expect(";")
            return SReturn(values, pos)
        # A declaration starts with a type then a name, so "name = ..." and
        # "name[...]" are statements on an existing variable.
        if nxt.key != "(" and (key == "mapping" or tok.kind == "ident"
                               and _names_builtin_type(tok.text)) \
                or tok.kind == "ident" and nxt.kind == "ident":
            return self.var_decl()
        return self.simple_stmt(require_semi=True)

    def if_stmt(self) -> SIf:
        tok = self.expect("if")
        cond = self.paren_expr()
        then = self.block()
        orelse: list = []
        if self.accept("else"):
            orelse = [self.stmt()] if self.at("if") else self.block()
        return SIf(cond, then, orelse, (tok.line, tok.col))

    def for_stmt(self) -> SFor:
        tok = self.expect("for")
        self.expect("(")
        init = None if self.at(";") else self.simple_stmt(require_semi=False)
        self.expect(";")
        cond = self.expr()
        self.expect(";")
        post = None if self.at(")") else self.simple_stmt(require_semi=False)
        self.expect(")")
        body = self.block()
        return SFor(init, cond, post, body, (tok.line, tok.col))

    def simple_stmt(self, require_semi: bool) -> SStmt:
        tok = self.peek()
        target = self.expr()
        if self.peek().key in _ASSIGN_OPS:
            op = self.next().text
            value = self.expr()
            if require_semi:
                self.expect(";")
            return SAssign(target, op, value, (tok.line, tok.col))
        if isinstance(target, ECall):
            if require_semi:
                self.expect(";")
            return SCallStmt(target, (tok.line, tok.col))
        self.err("expected an assignment or a call")

    # -- expressions ---------------------------------------------------------

    def paren_expr(self) -> SExpr:
        self.expect("(")
        node = self.expr()
        self.expect(")")
        return node

    def exprs(self) -> list:
        out = [self.expr()]
        while self.accept(","):
            out.append(self.expr())
        return out

    def expr_list(self, close: str) -> list:
        """Comma-separated expressions up to and including ``close``."""
        if self.accept(close):
            return []
        out = self.exprs()
        self.expect(close)
        return out

    def expr(self, min_prec: int = 1) -> SExpr:
        """An operand followed by binary operators of precedence
        ``min_prec`` or tighter, grouped to the left."""
        start = self.i
        node = self.unary()
        tokens = self.tokens
        top = _TIGHTEST
        while True:
            tok = tokens[self.i]
            prec = _BINARY.get(tok.key, 0)
            if not min_prec <= prec <= top:
                break
            self.i += 1
            node = EBin(tok.text, node, self.expr(prec + 1), (tok.line, tok.col))
            top = prec - 1 if prec == _COMPARE else prec
        # A tree has no more nodes than tokens, so only a long statement-level
        # expression can be too deep.
        if self.i - start > MAX_NESTING and self.depth == 0 and min_prec == 1:
            _check_depth(node)
        return node

    def unary(self) -> SExpr:
        """An operand: prefix ``!``/``-``, then a primary, then postfix
        index, member access and call."""
        tok = self.tokens[self.i]
        key, pos = tok.key, (tok.line, tok.col)
        if self.depth > MAX_NESTING:
            self.err(_TOO_DEEP)
        self.depth += 1
        if key == "!" or key == "-":
            self.i += 1
            inner = self.unary()
            self.depth -= 1
            if key == "!":
                return EUn("!", inner, pos)
            if isinstance(inner, ENum):
                return ENum(-inner.value, pos)
            return EUn("neg", inner, pos)
        self.i += 1
        if tok.kind == "num":
            node = ENum(int(tok.text), pos)
        elif tok.kind == "ident":
            node = EId(tok.text, pos)
        elif key == "(":
            node = self.expr()
            self.expect(")")
        elif key == "true" or key == "false":
            node = EBool(key == "true", pos)
        else:
            raise ParseError("unexpected end of input" if tok.kind == "eof"
                             else f"unexpected token {tok.text!r}", *pos)
        tokens = self.tokens
        while True:
            tok = tokens[self.i]
            key = tok.key
            if key == "[":
                self.i += 1
                node = EIndex(node, self.expr(), (tok.line, tok.col))
                self.expect("]")
            elif key == ".":
                self.i += 1
                node = EMember(node, self.ident("member name"), (tok.line, tok.col))
            elif key == "(":
                self.i += 1
                node = ECall(node, self.expr_list(")"), (tok.line, tok.col))
            else:
                self.depth -= 1
                return node


def parse_source(text: str) -> SourceProgram:
    """Parse surface text into an untyped source tree.

    Raises ParseError with line and column on any lexical or syntactic
    problem; empty input yields an empty program.
    """
    return Parser(lex(text)).program()


def parse_expr_text(text: str) -> SExpr:
    """Parse a standalone expression (used by spec files)."""
    p = Parser(lex(text))
    node = p.expr()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return node
