import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).resolve().parent.parent / "src"
                             / "toricpush").glob("*.py")
                 if p.name != "__init__.py")


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
