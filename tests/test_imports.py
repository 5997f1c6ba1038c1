"""Every module-level import in ``src/mcni`` and ``tests`` is used by its
file, and every module-level private name in ``src/mcni`` by its module.

A name that a refactor stops using stays importable and silently keeps
its module coupled to another; a private helper, class or constant that a
refactor strands is dead code that still reads as live. These checks read
each module's syntax tree and name what nothing in the module refers to.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mcni"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def unused_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = [n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items()
            if name not in used]


def test_the_check_names_an_unused_import():
    source = "import os\nfrom math import inf, pi\n\nx = pi\n"
    assert unused_imports(source) == ["line 1: os", "line 2: inf"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_names_an_unused_private_name():
    source = ("_LIMIT: int = 3\n_A, _b = 1, 2\n__all__ = []\n\n"
              "def _helper():\n    return _b\n\n"
              "class _Box:\n    pass\n\n"
              "def public():\n    _unused_local = 1\n    return _helper()\n")
    assert unused_private_names(source) == ["line 1: _LIMIT", "line 2: _A",
                                            "line 8: _Box"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_private_name(path):
    assert unused_private_names(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_test_file_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
