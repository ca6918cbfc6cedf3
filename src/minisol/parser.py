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

Operators by increasing precedence: ``||``, ``&&``, comparisons,
additive, multiplicative, unary ``!``/``-``, postfix index/member/call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.line = line
        self.col = col


KEYWORDS = {
    "contract", "is", "struct", "modifier", "function", "returns",
    "public", "private", "internal", "if", "else", "for", "while",
    "throw", "return", "true", "false", "mapping",
}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>\|\||&&|=>|<=|>=|==|!=|\+=|-=|\*=|/=|[-+*/%<>=!.,;:(){}\[\]])
""", re.VERBOSE | re.DOTALL)


@dataclass(frozen=True)
class Token:
    kind: str  # num | ident | keyword | op | eof
    text: str
    line: int
    col: int


def lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        tok = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            if kind == "ident" and tok in KEYWORDS:
                kind = "keyword"
            tokens.append(Token(kind, tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


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
    access: str | None = None
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


def looks_like_type(tok: Token, next_tok: Token) -> bool:
    if tok.kind == "keyword" and tok.text in ("mapping",):
        return True
    if tok.kind != "ident":
        return False
    if _INT_TYPE_RE.match(tok.text) or tok.text in ("bool", "address"):
        return True
    # A user struct type in a declaration: "Name ident" or "Name[".
    return next_tok.kind == "ident" or next_tok.text == "["


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind in ("op", "keyword")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if not self.at(text):
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def err(self, msg: str):
        tok = self.peek()
        raise ParseError(msg, tok.line, tok.col)

    # -- program ------------------------------------------------------------

    def program(self) -> SourceProgram:
        out = SourceProgram()
        while self.peek().kind != "eof":
            out.contracts.append(self.contract())
        return out

    def contract(self) -> SContract:
        tok = self.expect("contract")
        name = self.ident("contract name").text
        inherits = []
        if self.accept("is"):
            inherits.append(self.ident("base contract").text)
            while self.accept(","):
                inherits.append(self.ident("base contract").text)
        self.expect("{")
        members: list = []
        while not self.accept("}"):
            members.append(self.member())
        return SContract(name, inherits, members, (tok.line, tok.col))

    def member(self):
        tok = self.peek()
        if self.at("struct"):
            return self.struct_decl()
        if self.at("modifier"):
            return self.modifier_decl()
        if self.at("function"):
            return self.fun_decl()
        if looks_like_type(tok, self.peek(1)) or tok.text == "mapping":
            return self.var_decl()
        self.err(f"expected a contract member, found {tok.text!r}")

    def struct_decl(self) -> SStructDecl:
        tok = self.expect("struct")
        name = self.ident("struct name").text
        self.expect("{")
        fields = []
        while not self.accept("}"):
            ftype = self.type_ref()
            fname = self.ident("field name").text
            self.expect(";")
            fields.append((ftype, fname))
        return SStructDecl(name, fields, (tok.line, tok.col))

    def modifier_decl(self) -> SModifierDecl:
        tok = self.expect("modifier")
        name = self.ident("modifier name").text
        params = self.param_list()
        body = self.block()
        return SModifierDecl(name, params, body, (tok.line, tok.col))

    def fun_decl(self) -> SFunDecl:
        tok = self.expect("function")
        name = self.ident("function name").text
        params = self.param_list()
        access = None
        modifiers = []
        returns = []
        while True:
            if self.peek().text in ("public", "private", "internal"):
                access = self.next().text
            elif self.at("returns"):
                self.next()
                self.expect("(")
                returns.append(self.type_ref())
                while self.accept(","):
                    returns.append(self.type_ref())
                self.expect(")")
            elif self.peek().kind == "ident" and self.peek(1).text in ("(", "{",) \
                    or (self.peek().kind == "ident" and self.peek(1).kind == "ident"):
                # modifier invocation, optionally with arguments
                mname = self.next().text
                margs = []
                if self.accept("("):
                    if not self.at(")"):
                        margs.append(self.expr())
                        while self.accept(","):
                            margs.append(self.expr())
                    self.expect(")")
                modifiers.append((mname, margs))
            else:
                break
        body = self.block()
        return SFunDecl(name, params, access, modifiers, returns, body,
                        (tok.line, tok.col))

    def param_list(self):
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                ptype = self.type_ref()
                pname = self.ident("parameter name").text
                params.append((ptype, pname))
                if not self.accept(","):
                    break
        self.expect(")")
        return params

    def var_decl(self) -> SVarDecl:
        tok = self.peek()
        vtype = self.type_ref()
        access = None
        if self.peek().text in ("public", "private", "internal"):
            access = self.next().text
        name = self.ident("variable name").text
        init = None
        if self.accept("="):
            init = self.expr()
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
            name = self.ident("type name").text
            base = TName(name, (tok.line, tok.col))
        sizes = []
        while self.at("["):
            self.next()
            size_tok = self.peek()
            if size_tok.kind != "num":
                self.err("array types need a constant dimension length")
            self.next()
            sizes.append(int(size_tok.text))
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
        tok = self.peek()
        if self.accept(";"):
            return SSkip((tok.line, tok.col))
        if self.at("if"):
            return self.if_stmt()
        if self.at("while"):
            self.next()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            body = self.block()
            return SWhile(cond, body, (tok.line, tok.col))
        if self.at("for"):
            return self.for_stmt()
        if self.at("throw"):
            self.next()
            self.expect(";")
            return SThrow((tok.line, tok.col))
        if self.at("return"):
            self.next()
            values = []
            if not self.at(";"):
                paren = self.accept("(")
                values.append(self.expr())
                while self.accept(","):
                    values.append(self.expr())
                if paren:
                    self.expect(")")
            self.expect(";")
            return SReturn(values, (tok.line, tok.col))
        if looks_like_type(tok, self.peek(1)) and self.peek(1).text != "(" \
                and not self._starts_expression_stmt():
            return self.var_decl()
        return self.simple_stmt(require_semi=True)

    def _starts_expression_stmt(self) -> bool:
        # "name = ..." or "name[...]" could be an assignment to an existing
        # variable rather than a declaration; a declaration always has two
        # identifiers in a row (type then name) or a type keyword.
        tok, nxt = self.peek(), self.peek(1)
        if tok.kind != "ident":
            return False
        if _INT_TYPE_RE.match(tok.text) or tok.text in ("bool", "address", "mapping"):
            return False
        return nxt.kind != "ident"

    def if_stmt(self) -> SIf:
        tok = self.expect("if")
        self.expect("(")
        cond = self.expr()
        self.expect(")")
        then = self.block()
        orelse: list = []
        if self.accept("else"):
            if self.at("if"):
                orelse = [self.if_stmt()]
            else:
                orelse = self.block()
        return SIf(cond, then, orelse, (tok.line, tok.col))

    def for_stmt(self) -> SFor:
        tok = self.expect("for")
        self.expect("(")
        init = None
        if not self.at(";"):
            init = self.simple_stmt(require_semi=False)
        self.expect(";")
        cond = self.expr()
        self.expect(";")
        post = None
        if not self.at(")"):
            post = self.simple_stmt(require_semi=False)
        self.expect(")")
        body = self.block()
        return SFor(init, cond, post, body, (tok.line, tok.col))

    def simple_stmt(self, require_semi: bool) -> SStmt:
        tok = self.peek()
        target = self.expr()
        if self.peek().text in ("=", "+=", "-=", "*=", "/="):
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

    def expr(self) -> SExpr:
        return self.or_expr()

    def or_expr(self) -> SExpr:
        node = self.and_expr()
        while self.at("||"):
            tok = self.next()
            node = EBin("||", node, self.and_expr(), (tok.line, tok.col))
        return node

    def and_expr(self) -> SExpr:
        node = self.cmp_expr()
        while self.at("&&"):
            tok = self.next()
            node = EBin("&&", node, self.cmp_expr(), (tok.line, tok.col))
        return node

    def cmp_expr(self) -> SExpr:
        node = self.add_expr()
        if self.peek().text in ("<", ">", "<=", ">=", "==", "!="):
            tok = self.next()
            node = EBin(tok.text, node, self.add_expr(), (tok.line, tok.col))
        return node

    def add_expr(self) -> SExpr:
        node = self.mul_expr()
        while self.peek().text in ("+", "-") and self.peek().kind == "op":
            tok = self.next()
            node = EBin(tok.text, node, self.mul_expr(), (tok.line, tok.col))
        return node

    def mul_expr(self) -> SExpr:
        node = self.unary()
        while self.peek().text in ("*", "/", "%") and self.peek().kind == "op":
            tok = self.next()
            node = EBin(tok.text, node, self.unary(), (tok.line, tok.col))
        return node

    def unary(self) -> SExpr:
        tok = self.peek()
        if self.accept("!"):
            return EUn("!", self.unary(), (tok.line, tok.col))
        if self.accept("-"):
            inner = self.unary()
            if isinstance(inner, ENum):
                return ENum(-inner.value, (tok.line, tok.col))
            return EUn("neg", inner, (tok.line, tok.col))
        return self.postfix()

    def postfix(self) -> SExpr:
        node = self.primary()
        while True:
            tok = self.peek()
            if self.accept("["):
                index = self.expr()
                self.expect("]")
                node = EIndex(node, index, (tok.line, tok.col))
            elif self.accept("."):
                name = self.ident("member name").text
                node = EMember(node, name, (tok.line, tok.col))
            elif self.at("("):
                self.next()
                args = []
                if not self.at(")"):
                    args.append(self.expr())
                    while self.accept(","):
                        args.append(self.expr())
                self.expect(")")
                node = ECall(node, args, (tok.line, tok.col))
            else:
                return node

    def primary(self) -> SExpr:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return ENum(int(tok.text), (tok.line, tok.col))
        if self.accept("true"):
            return EBool(True, (tok.line, tok.col))
        if self.accept("false"):
            return EBool(False, (tok.line, tok.col))
        if tok.kind == "ident":
            self.next()
            return EId(tok.text, (tok.line, tok.col))
        if self.accept("("):
            node = self.expr()
            self.expect(")")
            return node
        self.err(f"unexpected token {tok.text!r}")


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
