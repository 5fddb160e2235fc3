import ast
from functools import lru_cache
from pathlib import Path

import pytest

import toricpush
from toricpush import divisors, endos, pushforward

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toricpush"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names a module imports (outside __future__) and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nfrom math import gcd, lcm\n"
                          "from x import y as z\nlcm(os.sep, z)\n") \
        == [(3, "gcd")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source):
    """Top-level names of the absolute imports of a module."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.partition(".")[0])
    return out


def test_module_detector():
    assert imported_modules("from __future__ import annotations\n"
                            "import os.path, fractions as fr\n"
                            "from math import gcd\n"
                            "from .fractions import x\n"
                            "from . import lattice\n") \
        == {"__future__", "os", "fractions", "math"}
    assert "fractions" in imported_modules("from fractions import Fraction")


# exact rational witnesses and bounds live only in the FM engine; every
# other module works on integers
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_fractions_only_in_feasibility(path):
    imports = imported_modules(path.read_text(encoding="utf-8"))
    assert ("fractions" in imports) == (path.name == "feasibility.py")


def dead_definitions(sources, exported=()):
    """Top-level functions and classes of the given module sources that no
    code reads outside their own definition and that are not exported, and
    the public methods and properties of those classes ("Class.name") that
    no code reads as an attribute outside their own body.

    Attributes are matched by name only, so a read of a name that is also a
    class field (an annotated name in some class body) cannot tell the
    field from the method, and keeps no method of that name alive."""
    defined, read = set(), set()
    methods, read_attrs, fields = set(), set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own = node.name
                defined.add(own)
            names = {sub.id for sub in ast.walk(node)
                     if isinstance(sub, ast.Name)}
            attrs = {sub.attr for sub in ast.walk(node)
                     if isinstance(sub, ast.Attribute)}
            read |= (names | attrs) - {own}
            if not isinstance(node, ast.ClassDef):
                read_attrs |= attrs
                continue
            for item in node.body:
                attrs = {sub.attr for sub in ast.walk(item)
                         if isinstance(sub, ast.Attribute)}
                if isinstance(item, ast.AnnAssign):
                    fields.add(item.target.id)
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    methods.add((node.name, item.name))
                    attrs.discard(item.name)
                read_attrs |= attrs
    return (sorted(defined - read - set(exported))
            + sorted("%s.%s" % m for m in methods
                     if m[1] not in read_attrs - fields))


def test_dead_detector():
    assert dead_definitions(
        ["def used(): pass\ndef _helper(): return _helper()\n"
         "class Kept: pass\nclass Gone: pass\n",
         "import m\nused()\nm.Kept\n"],
        exported=["Gone"]) == ["_helper"]


def test_dead_method_detector():
    # a method read only by its own body, or by nothing, is dead; private
    # and dunder methods are not checked
    assert dead_definitions(
        ["class Box:\n"
         "    def __add__(self, o): return self\n"
         "    def _spare(self): pass\n"
         "    @property\n"
         "    def size(self): return self.size\n"
         "    def rank(self): pass\n"
         "    def lift(self): pass\n"
         "    def shape(self): return self.lift()\n"
         "    def dim(self): pass\n"
         "class Lattice:\n"
         "    dim: int\n",
         "def use(box, lat): return box.shape(), lat.dim\n"],
        exported=["Box", "Lattice", "use"]) == ["Box.dim", "Box.rank",
                                                "Box.size"]


# no public function or method exists only for its own test
def test_no_dead_definitions():
    sources = [p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))]
    assert dead_definitions(sources, toricpush.__all__) == []


MUTATORS = {"append", "extend", "update", "setdefault", "add", "pop",
            "clear"}


def module_state_writes(source):
    """(line, what) for each place a function writes module state: a
    global statement, a store into a subscript of a module-level name, or a
    call of a mutating method on one."""
    tree = ast.parse(source)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).partition(".")[0]
                         for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        else:
            names.update(sub.id for sub in ast.walk(node)
                         if isinstance(sub, ast.Name)
                         and isinstance(sub.ctx, ast.Store))
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found.add((node.lineno, "global"))
            elif (isinstance(node, ast.Subscript)
                  and not isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in names):
                found.add((node.lineno, node.value.id + "[...]"))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in names):
                found.add((node.lineno, "%s.%s()" % (node.func.value.id,
                                                      node.func.attr)))
    return sorted(found)


def test_module_state_detector():
    assert module_state_writes(
        "import os\nSEEN = set()\nTABLE: dict = {}\nCOUNT = 0\n"
        "def f(x, local=[]):\n"
        "    SEEN.add(x)\n"
        "    TABLE[x] = 1\n"
        "    del TABLE[x]\n"
        "    local.append(TABLE[x])\n"
        "    os.environ.pop(x)\n"
        "    return lambda: SEEN.clear()\n"
        "def g():\n"
        "    global COUNT\n"
        "    COUNT += 1\n"
        "    return [x for x in SEEN if TABLE.get(x)], os.pop()\n") == [
        (6, "SEEN.add()"), (7, "TABLE[...]"), (8, "TABLE[...]"),
        (11, "SEEN.clear()"), (13, "global"), (15, "os.pop()")]


# The benchmark clears every module-level lru_cache before each pass, as a
# new CLI process starts cold; any other memo would carry work across passes
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_memoization_only_through_lru_cache(path):
    assert module_state_writes(path.read_text(encoding="utf-8")) == []


def test_section_counter_is_an_lru_cache():
    assert isinstance(divisors._section_counter, type(lru_cache(len)))


def test_slab_counter_is_an_lru_cache():
    assert isinstance(pushforward._slab_counter, type(lru_cache(len)))


@pytest.mark.parametrize("cached", [divisors._class_counter,
                                    endos.pullback_matrix],
                         ids=["class_counter", "pullback_matrix"])
def test_per_fan_and_per_endomorphism_memos_are_lru_caches(cached):
    assert isinstance(cached, type(lru_cache(len)))
