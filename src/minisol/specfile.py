"""Line-oriented property spec files (``.spec``).

    # comment
    entry <function>
    set <lvalue> = <int|true|false>
    sym <name> : bool
    sym <name> : int <lo>..<hi>
    require <boolean expression>
    post throw-state
    post unchanged <name>
    post <boolean expression>

``set`` lines seed memory before the snapshot that a throw restores;
``sym`` lines declare symbolic inputs over finite domains; ``require``
constrains them; ``post`` lines are conjoined into the postcondition.
This module only parses; ``runner`` types each symbol by the block it
names and lowers the expressions against the program.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .engine import SymbolicValue
from .parser import ParseError, SExpr, parse_expr_text


class SpecError(Exception):
    pass


@dataclass
class PostSpec:
    kind: str                  # "throw-state" | "unchanged" | "expr"
    name: str = ""             # the block "unchanged" names
    expr: SExpr | None = None  # the boolean expression of "expr"
    line: int = 0


@dataclass
class SpecFile:
    entry: str | None = None
    sets: list = field(default_factory=list)      # (lvalue text, raw literal)
    symbols: list = field(default_factory=list)   # SymbolicValue
    requires: list = field(default_factory=list)  # (line number, surface expression)
    posts: list = field(default_factory=list)     # PostSpec


_INT_RANGE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def parse_literal(text: str):
    text = text.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"expected an integer or boolean literal, got {text!r}")


def parse_symbol_decl(name: str, rest: str, declared) -> SymbolicValue:
    """One symbol declaration; ``declared`` lists the symbols seen so far."""
    if not name.isidentifier():
        raise SpecError(f"bad symbol name {name!r}")
    if any(s.name == name for s in declared):
        raise SpecError(f"symbol {name!r} declared twice")
    rest = rest.strip()
    if rest == "bool":
        return SymbolicValue(name, "bool")
    if rest.startswith("int"):
        rng = rest[3:].strip()
        m = _INT_RANGE.match(rng)
        if not m:
            raise SpecError(f"symbol {name!r} needs a finite range, e.g. int 0..7")
        lo, hi = int(m.group(1)), int(m.group(2))
        if hi < lo:
            raise SpecError(f"empty range for symbol {name!r}")
        return SymbolicValue(name, "int", lo=lo, hi=hi)
    raise SpecError(f"unknown symbol kind in {rest!r}")


def parse_spec(text: str) -> SpecFile:
    spec = SpecFile()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head, _, rest = line.partition(" ")
            rest = rest.strip()
            if head == "entry":
                spec.entry = rest
            elif head == "set":
                lhs, eq, value = rest.rpartition("=")
                if not eq:
                    raise SpecError("set needs the form: set <lvalue> = <literal>")
                spec.sets.append((lhs.strip(), parse_literal(value)))
            elif head == "sym":
                name, colon, kind = rest.partition(":")
                if not colon:
                    raise SpecError("sym needs the form: sym <name> : <kind>")
                spec.symbols.append(parse_symbol_decl(name.strip(), kind, spec.symbols))
            elif head == "require":
                spec.requires.append((lineno, parse_expr_text(rest)))
            elif head == "post":
                spec.posts.append(_parse_post(rest, lineno))
            else:
                raise SpecError(f"unknown directive {head!r}")
        except (SpecError, ParseError) as exc:
            raise SpecError(f"line {lineno}: {exc}") from exc
    return spec


def _parse_post(rest: str, lineno: int) -> PostSpec:
    if rest == "throw-state":
        return PostSpec("throw-state")
    rule, _, name = rest.partition(" ")
    if rule == "unchanged":
        if not name.strip():
            raise SpecError("post unchanged needs a block name")
        return PostSpec("unchanged", name.strip(), line=lineno)
    return PostSpec("expr", expr=parse_expr_text(rest), line=lineno)
