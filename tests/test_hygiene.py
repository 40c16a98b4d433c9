"""Source hygiene: every name a module of the package imports is used in
that module (__init__.py is left out, since its imports are re-exports),
every private module-level function, class or constant is used somewhere
in the package outside its own definition, every private name that a comment
or docstring of the package names is one its code knows, and no form is typed
out twice as a literal."""

import ast
import io
import re
import tokenize
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


def defined_names(node) -> list:
    """The names a module-level statement defines: a function or class, or
    the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unused_private_helpers(sources: dict) -> list:
    """(module, name) of each module-level function, class or constant named
    _name in sources (module -> source text) that no code of any module
    refers to outside that definition or assignment."""
    defs, refs = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        defs += [(module, name, node) for node in tree.body for name in defined_names(node)
                 if name.startswith("_") and not name.startswith("__")]
        refs += [(module, n.id if isinstance(n, ast.Name) else n.attr, n.lineno)
                 for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]

    def referenced(module, name, node):
        return any(ref == name and (m != module or not node.lineno <= line <= node.end_lineno)
                   for m, ref, line in refs)

    return sorted((module, name) for module, name, node in defs
                  if not referenced(module, name, node))


def test_unused_private_helper_is_found():
    sources = {"a.py": "_LIMIT, _LEFT = 4, 5\n_ORPHAN: int = 3\n\n\ndef _used():\n"
                       "    return _LIMIT\n\n\ndef _recursive(n):\n"
                       "    return _recursive(n - 1)\n\n\nclass _Orphan:\n    pass\n",
               "b.py": "from a import _used\n\n\ndef public():\n    return _used()\n"}
    assert unused_private_helpers(sources) == [("a.py", "_LEFT"), ("a.py", "_ORPHAN"),
                                               ("a.py", "_Orphan"), ("a.py", "_recursive")]


def test_no_unused_private_helpers():
    assert unused_private_helpers({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


PRIVATE_IN_PROSE = re.compile(r"(?<!\w)_[A-Za-z]\w{2,}")


def prose_names(source: str) -> set:
    """Private identifiers of four or more characters (_name) named in the
    comments and docstrings of source."""
    tree = ast.parse(source)
    prose = [ast.get_docstring(node, clean=False) or "" for node in ast.walk(tree)
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    prose += [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type == tokenize.COMMENT]
    return {name for text in prose for name in PRIVATE_IN_PROSE.findall(text)}


def code_names(source: str) -> set:
    """Every identifier source defines or refers to in code."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_prose_names_are_found():
    source = ('"""Uses _helper and _gone, not u_ii or _ij."""\n\n\n'
              'def _helper():\n    # calls _other_gone\n    return 1\n')
    assert prose_names(source) == {"_helper", "_gone", "_other_gone"}
    assert sorted(prose_names(source) - code_names(source)) == ["_gone", "_other_gone"]


def test_private_names_in_prose_are_defined():
    sources = [p.read_text() for p in SRC.glob("*.py")]
    defined = set().union(*map(code_names, sources))
    assert sorted(set().union(*map(prose_names, sources)) - defined) == []


def repeated_form_literals(sources: dict) -> list:
    """The places (module, line) of each literal matrix that sources (module
    -> source text) pass to from_rows at more than one place."""
    places = {}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "from_rows" and node.args):
                try:
                    rows = tuple(map(tuple, ast.literal_eval(node.args[0])))
                except ValueError:
                    continue
                places.setdefault(rows, []).append((module, node.lineno))
    return sorted(sorted(found) for found in places.values() if len(found) > 1)


def test_repeated_form_literal_is_found():
    sources = {"a.py": "F = BilinearForm.from_rows([[1, 0], [0, -1]])\n"
                       "G = BilinearForm.from_rows([[a, 0], [0, -a]])\n",
               "b.py": "def f(a):\n    h = BilinearForm.from_rows(((1, 0), (0, -1)))\n"
                       "    return BilinearForm.from_rows([[a, 0], [0, -a]]), h, "
                       "BilinearForm.from_rows([[2, 0], [0, -2]])\n"}
    assert repeated_form_literals(sources) == [[("a.py", 1), ("b.py", 2)]]


def test_no_form_literal_is_typed_twice():
    assert repeated_form_literals({p.name: p.read_text() for p in SRC.glob("*.py")}) == []
