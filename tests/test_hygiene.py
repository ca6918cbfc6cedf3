"""Source hygiene: every function in ``src/minisol`` reads each of its
parameters, and every top-level function and class is named by the
program or the benchmark somewhere outside its own definition.

A parameter that is threaded through but never read costs every caller
an argument and hides which inputs a function really depends on. A name
starting with ``_`` marks a parameter that a callback interface fixes and
the function deliberately ignores. A definition that only tests or an
``__all__`` list name is code that no command reaches.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "minisol"

# (file, function, parameter) -> why it is kept although never read
ALLOWED = {
    ("symbolic.py", "SymExpr.eval", "assignment"):
        "abstract method: the interface every symbolic node implements",
    ("symbolic.py", "SymConst.eval", "assignment"):
        "a constant implements SymExpr.eval and needs no assignment",
    ("values.py", "locate_array_element", "env"):
        "public signature that the acceptance suite calls with an environment",
}


def unread_parameters():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    owner[child] = node.name
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(fn, "name", "<lambda>")
            if fn in owner:
                name = f"{owner[fn]}.{name}"
            for p in params:
                if p not in read and p not in ("self", "cls") and not p.startswith("_"):
                    found.add((path.name, name, p))
    return found


def test_every_parameter_is_read():
    unread = unread_parameters()
    assert sorted(unread - ALLOWED.keys()) == []
    # an entry whose parameter is read again, or is gone, must leave the list
    assert sorted(ALLOWED.keys() - unread) == []


def _names(node):
    """Every name ``node`` mentions: loads, attributes, import aliases and
    the dotted parts of string constants (the benchmark tracer names the
    functions it wraps by string)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rpartition(".")[2]
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield from n.value.split(".")


def _exports(stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def unnamed_definitions():
    mentions = Counter()
    for path in sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not _exports(stmt):
                mentions.update(_names(stmt))
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = sum(1 for name in _names(node) if name == node.name)
                if mentions[node.name] == own:
                    found.add((path.name, node.name))
    return found


def test_every_definition_is_named_elsewhere():
    assert sorted(unnamed_definitions()) == []
