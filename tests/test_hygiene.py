"""Source hygiene: every function in ``src/minisol`` reads each of its
parameters, every top-level function and class is named by the program
or the benchmark somewhere outside its own definition, and no code
mutates a value of the slotted, non-frozen value classes.

A parameter that is threaded through but never read costs every caller
an argument and hides which inputs a function really depends on. A name
starting with ``_`` marks a parameter that a callback interface fixes and
the function deliberately ignores. A definition that only tests or an
``__all__`` list name is code that no command reaches. The value classes
built on every dispatch are declared without ``frozen`` for speed, so
their immutability is a rule that this file and the symbolic-vs-concrete
property test (``test_agreement.py``) enforce.
"""

import ast
from collections import Counter
from dataclasses import fields
from pathlib import Path

from minisol.memory import BoolPayload, IntPayload, MemoryState, MemoryValue
from minisol.stmts import StepResult
from minisol.values import Env

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


# Values shared between states and paths, declared as slotted dataclasses
# without ``frozen``: nothing may store to their fields once built.
VALUE_CLASSES = (BoolPayload, IntPayload, MemoryValue, MemoryState, Env, StepResult)
VALUE_FIELDS = {f.name for cls in VALUE_CLASSES for f in fields(cls)}
_SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def value_stores(source: str, filename: str = "<source>") -> list:
    """(file, line, what) for each store to or deletion of an attribute
    named like a value-class field outside those classes' own bodies, and
    for each ``setattr``/``delattr`` call anywhere, ``object.__setattr__``
    included."""
    found = []
    owners = {cls.__name__ for cls in VALUE_CLASSES}

    def visit(node, inside_owner):
        if isinstance(node, ast.ClassDef):
            inside_owner = node.name in owners
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and node.attr in VALUE_FIELDS and not inside_owner:
            found.append((filename, node.lineno, f"store to .{node.attr}"))
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) \
                else None
            if name in _SETTERS:
                found.append((filename, node.lineno, f"{name} call"))
        for child in ast.iter_child_nodes(node):
            visit(child, inside_owner)

    visit(ast.parse(source), False)
    return found


def test_value_classes_are_never_mutated():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in value_stores(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_immutability_check_flags_planted_stores():
    assert value_stores("sigma.blocks = sigma.blocks.set(0, b)\n") == [
        ("<source>", 1, "store to .blocks")]
    assert value_stores('object.__setattr__(v, "payload", p)\n') == [
        ("<source>", 1, "__setattr__ call")]
    assert value_stores("env.gas -= 1\nres.halted: bool = True\nsetattr(p, 'bit', 1)\n") == [
        ("<source>", 1, "store to .gas"), ("<source>", 2, "store to .halted"),
        ("<source>", 3, "setattr call")]
    # A class initializes its own fields; other stores are not value fields.
    assert value_stores("class MemoryState:\n    def f(self):\n        self.blocks = ()\n"
                        "ctx.sigma_init = sigma\n") == []
