"""Source hygiene: every name a module of the package imports is used in
that module (__init__.py is left out, since its imports are re-exports),
and every private module-level function or class is used somewhere in the
package outside its own definition."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "thetaforge"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_import_is_found():
    assert unused_imports("import math\nfrom fractions import Fraction as F\n"
                          "from os import path, sep\nprint(math.pi, sep)\n") == ["F", "path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_helpers(sources: dict) -> list:
    """(module, name) of each module-level function or class named _name in
    sources (module -> source text) that no code of any module refers to
    outside that definition."""
    defs, refs = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        defs += [(module, node) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and node.name.startswith("_") and not node.name.startswith("__")]
        refs += [(module, n.id if isinstance(n, ast.Name) else n.attr, n.lineno)
                 for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]

    def referenced(module, node):
        return any(name == node.name and (m != module or not node.lineno <= line <= node.end_lineno)
                   for m, name, line in refs)

    return sorted((module, node.name) for module, node in defs if not referenced(module, node))


def test_unused_private_helper_is_found():
    sources = {"a.py": "def _used():\n    pass\n\n\ndef _recursive(n):\n"
                       "    return _recursive(n - 1)\n\n\nclass _Orphan:\n    pass\n",
               "b.py": "from a import _used\n\n\ndef public():\n    return _used()\n"}
    assert unused_private_helpers(sources) == [("a.py", "_Orphan"), ("a.py", "_recursive")]


def test_no_unused_private_helpers():
    assert unused_private_helpers({p.name: p.read_text() for p in SRC.glob("*.py")}) == []
