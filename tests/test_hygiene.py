"""Source hygiene: every function in ``src/minisol`` reads each of its
parameters, every field of a dataclass or ``NamedTuple`` there is read,
every top-level function and class is named by the program
or the benchmark somewhere outside its own definition, no code mutates a
value of the slotted, non-frozen value classes or a root, mid or leaf
list of a ``BlockVector``, only the expression layer and the symbolic module
build arithmetic symbolic trees, no function of the statement layer
but ``drive`` itself enters the dispatch loop ``drive``, only the
expression layer stores the closure compiled on an expression node, and
only the statement layer stores a statement's rule or division mark.

A parameter that is threaded through but never read costs every caller
an argument and hides which inputs a function really depends on; a field
that nothing reads is set and carried by every instance for no reader. A name
starting with ``_`` marks a parameter that a callback interface fixes and
the function deliberately ignores. A definition that only tests or an
``__all__`` list name is code that no command reaches. The value classes
built on every dispatch are declared without ``frozen``, and the store's
nodes are lists, for speed, so their immutability is a rule that this
file and the symbolic-vs-concrete property test (``test_agreement.py``)
enforce.
"""

import ast
from collections import Counter
from dataclasses import fields
from pathlib import Path

from minisol.memory import BlockVector, BoolPayload, IntPayload, MemoryState, MemoryValue
from minisol.stmts import StepResult
from minisol.syntax import _ATTRIBUTE, FORMAT
from minisol.values import Env

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "minisol"

# (file, function, parameter) -> why it is kept although never read
ALLOWED = {
    ("symbolic.py", "SymExpr.eval", "assignment"):
        "abstract method: the interface every symbolic node implements",
    ("symbolic.py", "SymConst.eval", "assignment"):
        "a constant implements SymExpr.eval and needs no assignment",
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


# (file, class, field) -> why it is kept although nothing reads it
FIELDS_ALLOWED = {
    ("values.py", "BlockInfo", "number"):
        "the benchmark's set-up timer builds BlockInfo(number=0), and the benchmark "
        "changes only on its own",
}


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether ``cls`` is a dataclass or a ``NamedTuple``."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list] + cls.bases
    return any((m.id if isinstance(m, ast.Name) else getattr(m, "attr", None))
               in ("dataclass", "NamedTuple") for m in marks)


def field_reads(source: str) -> set:
    """The attribute names ``source`` loads, by attribute access or by a
    ``getattr`` with a literal name. An attribute of a name that an import
    in ``source`` binds (``sys.path``) is a module's, not a field read."""
    tree = ast.parse(source)
    modules = {(a.asname or a.name).partition(".")[0] for n in ast.walk(tree)
               if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    reads = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) \
                and not (isinstance(n.value, ast.Name) and n.value.id in modules):
            reads.add(n.attr)
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) \
                and n.func.id == "getattr" and len(n.args) > 1 \
                and isinstance(n.args[1], ast.Constant):
            reads.add(n.args[1].value)
    return reads


def unread_fields(declaring, reading, named=()) -> set:
    """(file, class, field) of each field of a record class in the
    ``declaring`` (file, source) pairs that no source in ``reading`` reads
    and that ``named`` does not list."""
    reads = set(named).union(*(field_reads(source) for source in reading))
    found = set()
    for filename, source in declaring:
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and _is_record(cls):
                found.update((filename, cls.name, stmt.target.id) for stmt in cls.body
                             if isinstance(stmt, ast.AnnAssign)
                             and isinstance(stmt.target, ast.Name)
                             and stmt.target.id not in reads)
    return found


def test_every_field_is_read():
    # A field is read by an attribute load or a ``getattr`` in the program or
    # the benchmark, or through ``syntax.FORMAT``, which serializes by name.
    declaring = [(p.name, p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    reading = [p.read_text(encoding="utf-8")
               for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    serialized = {_ATTRIBUTE.get(f, f) for _kind, names in FORMAT.values() for f in names}
    unread = unread_fields(declaring, reading, serialized)
    assert sorted(unread - FIELDS_ALLOWED.keys()) == []
    # an entry whose field is read again, or is gone, must leave the list
    assert sorted(FIELDS_ALLOWED.keys() - unread) == []


def test_field_check_flags_planted_unread_fields():
    declaring = [("<source>",
                  "@dataclass(frozen=True)\nclass A:\n    kept: int\n    lost: int = 0\n"
                  "@dataclasses.dataclass\nclass B:\n    got: int\n    typed: int\n"
                  "class C(NamedTuple):\n    seen: str\n    unseen: str\n"
                  "class D:\n    plain: int = 0\n")]
    # Stores, keyword arguments and attributes of imported names are not reads.
    reading = ["a.kept\na.lost = 1\nreplace(c, unseen=2)\nA(lost=3)\n",
               "print(getattr(c, 'seen'), getattr(b, name))\n",
               "import sys\nimport os.path as typed\nfrom m import b\n"
               "sys.unseen\ntyped.typed\nb.typed\n"]
    assert sorted(unread_fields(declaring, reading, {"got"})) == [
        ("<source>", "A", "lost"), ("<source>", "B", "typed"), ("<source>", "C", "unseen")]


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
    assert value_stores("env.gas -= 1\nres.splits: tuple = ()\nsetattr(p, 'bit', 1)\n") == [
        ("<source>", 1, "store to .gas"), ("<source>", 2, "store to .splits"),
        ("<source>", 3, "setattr call")]
    # A class initializes its own fields; other stores are not value fields.
    assert value_stores("class MemoryState:\n    def f(self):\n        self.blocks = ()\n"
                        "ctx.sigma_init = sigma\n") == []


# ``BlockVector`` keeps its root, mids and leaves as lists for cheap copies,
# and states share them, so no code outside its own methods may mutate one:
# a root is a ``.root`` attribute, a mid is a root subscripted once, a leaf
# is a mid subscripted once, and a name bound to any of them (by assignment
# or as a loop target over a root or mid, through ``enumerate`` and ``zip``)
# is one too.
_LIST_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
                  "__setitem__", "__delitem__", "__iadd__", "__imul__"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


_CHILD = {"root": "mid", "mid": "leaf"}  # what subscripting or iterating a node yields


def _node_kind(e, aliases):
    """What ``e`` evaluates to: "root", "mid", "leaf" or None."""
    if isinstance(e, ast.Attribute) and e.attr == "root":
        return "root"
    if isinstance(e, ast.Name):
        return aliases.get(e.id)
    if isinstance(e, ast.Subscript):
        return _CHILD.get(_node_kind(e.value, aliases))
    return None


def _item_shape(it, aliases):
    """What iterating ``it`` yields: "mid", "leaf", a tuple of shapes, or None."""
    kind = _node_kind(it, aliases)
    if kind in _CHILD:
        return _CHILD[kind]
    if isinstance(it, ast.Call) and isinstance(it.func, ast.Name):
        if it.func.id == "enumerate" and it.args:
            return (None, _item_shape(it.args[0], aliases))
        if it.func.id == "zip":
            return tuple(_item_shape(a, aliases) for a in it.args)
    return None


def _bind(target, shape, aliases):
    if isinstance(target, ast.Name) and isinstance(shape, str):
        aliases[target.id] = shape
    elif isinstance(target, (ast.Tuple, ast.List)) and isinstance(shape, tuple) \
            and len(target.elts) == len(shape):
        for t, s in zip(target.elts, shape):
            _bind(t, s, aliases)


def _scope_nodes(scope):
    """The nodes of ``scope`` that are not inside a nested function or class."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def node_mutations(source: str, filename: str = "<source>") -> list:
    """(file, line, what) for each subscript store, ``del``, augmented
    assignment, attribute store or mutating list-method call aimed at a
    ``BlockVector`` root, mid or leaf outside the methods of ``BlockVector``."""
    found = []

    def visit(scope, outer):
        nodes = list(_scope_nodes(scope))
        aliases = dict(outer)
        for _ in range(3):  # an alias of an alias
            for n in nodes:
                if isinstance(n, ast.Assign):
                    for t in n.targets:
                        _bind(t, _node_kind(n.value, aliases), aliases)
                elif isinstance(n, (ast.AnnAssign, ast.NamedExpr)) and n.value is not None:
                    _bind(n.target, _node_kind(n.value, aliases), aliases)
                elif isinstance(n, (ast.For, ast.comprehension)):
                    _bind(n.target, _item_shape(n.iter, aliases), aliases)
        for n in nodes:
            what = None
            if isinstance(n, ast.Subscript) and not isinstance(n.ctx, ast.Load) \
                    and _node_kind(n.value, aliases):
                what = "subscript store" if isinstance(n.ctx, ast.Store) else "del"
            elif isinstance(n, ast.Attribute) and n.attr == "root" \
                    and not isinstance(n.ctx, ast.Load):
                what = "store to .root" if isinstance(n.ctx, ast.Store) else "del"
            elif isinstance(n, ast.AugAssign) and _node_kind(n.target, aliases):
                what = "augmented assignment"
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                    and n.func.attr in _LIST_MUTATORS and _node_kind(n.func.value, aliases):
                what = f"{n.func.attr} call"
            if what:
                found.append((filename, n.lineno, what))
            if isinstance(n, _SCOPES) and not (isinstance(n, ast.ClassDef)
                                               and n.name == "BlockVector"):
                visit(n, aliases)

    visit(ast.parse(source), {})
    return sorted(found)


def test_block_vector_nodes_are_never_mutated():
    # the check follows the attribute that holds the root, so it must be there
    assert BlockVector.__slots__ == ("root", "size")
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in node_mutations(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_node_check_flags_planted_mutations():
    planted = (
        "blocks.root[0] = mid\n"                                     # 1  root
        "sigma.blocks.root[1][2] = leaf\n"                           # 2  mid
        "sigma.blocks.root[1][2][3] = v\n"                           # 3  leaf
        "del blocks.root[0]\n"                                       # 4  root
        "del blocks.root[0][1]\n"                                    # 5  mid
        "del blocks.root[0][1][2]\n"                                 # 6  leaf
        "blocks.root += [mid]\n"                                     # 7  root
        "blocks.root[0] += [leaf]\n"                                 # 8  mid
        "blocks.root[0][1] += [v]\n"                                 # 9  leaf
        "blocks.root.append(mid)\n"                                  # 10 root
        "blocks.root[0].append(leaf)\n"                              # 11 mid
        "blocks.root[0][1].append(v)\n"                              # 12 leaf
        "def f(blocks):\n"
        "    mid = blocks.root[3]\n"
        "    mid += [leaf]\n"                                        # 15 mid
        "    leaf = mid[0]\n"
        "    leaf += [v]\n"                                          # 17 leaf
        "    for each in blocks.root:\n"
        "        each.append(leaf)\n"                                # 19 mid
        "        for one in each:\n"
        "            one.append(v)\n"                                # 21 leaf
        "    for j, (a, b) in enumerate(zip(x.root, y.root)):\n"
        "        b.sort()\n"                                         # 23 mid
        "        j += 1\n"
        "root = blocks.root\n"
        "root.insert(0, mid)\n"                                      # 26 root
        "alias = root\n"
        "alias[0][5] = leaf\n"                                       # 28 mid
        "alias[0][5][1] = v\n"                                       # 29 leaf
        "blocks.root = []\n"                                         # 30 root
        "del blocks.root\n"                                          # 31 root
    )
    assert node_mutations(planted) == [
        ("<source>", 1, "subscript store"), ("<source>", 2, "subscript store"),
        ("<source>", 3, "subscript store"), ("<source>", 4, "del"), ("<source>", 5, "del"),
        ("<source>", 6, "del"),
        # an augmented assignment to a node is also a store to its place
        ("<source>", 7, "augmented assignment"), ("<source>", 7, "store to .root"),
        ("<source>", 8, "augmented assignment"), ("<source>", 8, "subscript store"),
        ("<source>", 9, "augmented assignment"), ("<source>", 9, "subscript store"),
        ("<source>", 10, "append call"), ("<source>", 11, "append call"),
        ("<source>", 12, "append call"), ("<source>", 15, "augmented assignment"),
        ("<source>", 17, "augmented assignment"), ("<source>", 19, "append call"),
        ("<source>", 21, "append call"), ("<source>", 23, "sort call"),
        ("<source>", 26, "insert call"), ("<source>", 28, "subscript store"),
        ("<source>", 29, "subscript store"), ("<source>", 30, "store to .root"),
        ("<source>", 31, "del")]
    # BlockVector's own methods write into their fresh copies; reading a
    # block, copying a node and ordinary lists are not node mutations.
    assert node_mutations(
        "class BlockVector:\n"
        "    def set(self, i, v):\n"
        "        root = self.root.copy()\n"
        "        mid = root[0] = root[0].copy()\n"
        "        leaf = mid[0] = mid[0].copy()\n"
        "        leaf[i] = v\n"
        "        self.root[0][0].append(v)\n"
        "block = blocks.root[i >> MID_SHIFT][(i >> SHIFT) & MASK][i & MASK]\n"
        "block_list = [block]\n"
        "block_list.append(block)\n"
        "fresh = blocks.root[0][1].copy()\n"
        "fresh[0] = v\n") == []


# Only ``memory.py`` knows how a ``BlockVector`` lays its blocks out: no
# other module reads a root or names a constant that splits an index into
# its mid, leaf and slot, so the layout can change in that module alone.
_LAYOUT_CONSTANTS = {"SHIFT", "MID_SHIFT", "MASK", "WIDTH"}


def layout_reads(source: str, filename: str = "<source>") -> list:
    """(file, line, name) for each ``.root`` attribute and each attribute,
    name or import of a layout constant."""
    found = []
    for n in ast.walk(ast.parse(source)):
        name = (n.attr if isinstance(n, ast.Attribute) else n.id if isinstance(n, ast.Name)
                else n.name if isinstance(n, ast.alias) else None)
        if name in _LAYOUT_CONSTANTS or name == "root" and isinstance(n, ast.Attribute):
            found.append((filename, n.lineno, name))
    return sorted(found)


def test_only_memory_knows_the_block_layout():
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name != "memory.py"
             for hit in layout_reads(path.read_text(encoding="utf-8"), path.name)]
    assert found == []
    assert layout_reads((SRC / "memory.py").read_text(encoding="utf-8")) != []


def test_layout_check_flags_planted_reads():
    planted = (
        "block = sigma.blocks.root[0]\n"           # 1
        "shift = gm.SHIFT\n"                       # 2
        "from .memory import MASK\n"               # 3
        "from minisol.memory import WIDTH as W\n"  # 4
        "i >> MID_SHIFT\n"                         # 5
        "for mid in blocks.root: pass\n"           # 6
    )
    assert layout_reads(planted) == [
        ("<source>", 1, "root"), ("<source>", 2, "SHIFT"), ("<source>", 3, "MASK"),
        ("<source>", 4, "WIDTH"), ("<source>", 5, "MID_SHIFT"), ("<source>", 6, "root")]
    # A local name ``root`` and other attributes of the memory module are not the layout.
    assert layout_reads("root = tree.parent\ngm.read(sigma, addr)\nx = gm.OCCUPY\n") == []


# Arithmetic over symbols has one set of rules: the operator table that the
# expression layer applies and ``SymOp.eval`` replays. Only those two modules
# may build an arithmetic ``SymOp`` or give one a width, so no module grows a
# private arithmetic of its own again (as spec files once had).
_ARITH_SYMOPS = {"+", "-", "*", "/", "%", "neg"}
_SYMOP_BUILDERS = {"exprs.py", "symbolic.py"}


def arithmetic_symops(source: str, filename: str = "<source>") -> list:
    """(file, line, what) for each ``SymOp`` call whose operator is
    arithmetic or not a string literal, and for each that passes a width."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) != "SymOp":
            continue
        op = node.args[0] if node.args else next(
            (k.value for k in node.keywords if k.arg == "op"), None)
        if not (isinstance(op, ast.Constant) and isinstance(op.value, str)):
            found.append((filename, node.lineno, "computed operator"))
        elif op.value in _ARITH_SYMOPS:
            found.append((filename, node.lineno, f"arithmetic {op.value}"))
        if len(node.args) > 2 or any(k.arg == "width" for k in node.keywords):
            found.append((filename, node.lineno, "width"))
    return found


def test_only_the_expression_layer_builds_arithmetic_symops():
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name not in _SYMOP_BUILDERS
             for hit in arithmetic_symops(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_symop_check_flags_planted_arithmetic():
    planted = (
        "SymOp(e.op, (left, right), width=64, signed=False)\n"        # 1
        'symbolic.SymOp("neg", (x,))\n'                               # 2
        'SymOp("<", (a, b), 64)\n'                                    # 3
        'SymOp(op="%", args=(a, b))\n'                                # 4
        'SymOp("*", (a, SymOp("-", (b, c))))\n'                       # 5
    )
    assert sorted(arithmetic_symops(planted)) == [
        ("<source>", 1, "computed operator"), ("<source>", 1, "width"),
        ("<source>", 2, "arithmetic neg"), ("<source>", 3, "width"),
        ("<source>", 4, "arithmetic %"), ("<source>", 5, "arithmetic *"),
        ("<source>", 5, "arithmetic -")]
    # Logic, comparison and negation without a width are not arithmetic.
    assert arithmetic_symops('SymOp("&&", (a, b))\nSymOp("==", (v, SymConst(1)))\n'
                             'SymOp("!", (a,))\nOther("+", (a, b), 64)\n') == []


def test_only_drive_enters_the_dispatch_loop():
    # One dispatch loop: no statement rule or helper runs a nested one.
    tree = ast.parse((SRC / "stmts.py").read_text(encoding="utf-8"))
    callers = sorted(fn.name for fn in ast.walk(tree)
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and fn.name != "drive" and "drive" in {
                         n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(fn) if isinstance(n, (ast.Name, ast.Attribute))})
    assert callers == []


# An expression node's ``compiled`` closure is built by the expression layer
# from node data alone, and forked paths share it; any other module that
# stored one could make a node evaluate differently from its own data.
# Likewise a statement's ``rule``, which the statement layer compiles from
# the node alone, and its ``may_divide`` mark, which that layer computes from
# the node and trusts to skip a division check: a mark stored anywhere else
# could let a division by zero pass unchecked.
def attribute_stores(source: str, attr: str, filename: str = "<source>") -> list:
    """(file, line) of each store to or deletion of an ``attr`` attribute."""
    return [(filename, n.lineno) for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and n.attr == attr
            and isinstance(n.ctx, (ast.Store, ast.Del))]


def stores_outside(attr: str, owner: str) -> list:
    """``attribute_stores`` of ``attr`` in every module but ``owner``."""
    return [hit for path in sorted(SRC.glob("*.py")) if path.name != owner
            for hit in attribute_stores(path.read_text(encoding="utf-8"), attr, path.name)]


def planted_stores(attr: str) -> list:
    planted = (
        "e.ATTR = run\n"                     # 1
        "node.left.ATTR = None\n"            # 2
        "run = e.ATTR = build(e)\n"          # 3
        "del e.ATTR\n"                       # 4
        "a.ATTR, b = f, 0\n"                 # 5
        "for x.ATTR in runs: pass\n"         # 6
        "run = e.ATTR\nf(e.ATTR)\ne.tpair = p\n"  # reads, and another attribute
    ).replace("ATTR", attr)
    return sorted(attribute_stores(planted, attr))


def test_only_the_expression_layer_stores_compiled_closures():
    assert stores_outside("compiled", "exprs.py") == []
    assert attribute_stores((SRC / "exprs.py").read_text(encoding="utf-8"), "compiled") != []


def test_compiled_check_flags_planted_stores():
    assert planted_stores("compiled") == [("<source>", i) for i in range(1, 7)]


def test_only_the_statement_layer_stores_division_marks():
    assert stores_outside("may_divide", "stmts.py") == []
    assert attribute_stores((SRC / "stmts.py").read_text(encoding="utf-8"), "may_divide") != []


def test_mark_check_flags_planted_stores():
    assert planted_stores("may_divide") == [("<source>", i) for i in range(1, 7)]


def test_only_the_statement_layer_stores_statement_rules():
    assert stores_outside("rule", "stmts.py") == []
    assert attribute_stores((SRC / "stmts.py").read_text(encoding="utf-8"), "rule") != []


def test_rule_check_flags_planted_stores():
    assert planted_stores("rule") == [("<source>", i) for i in range(1, 7)]
