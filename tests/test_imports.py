"""Every module-level import in ``src/mcni`` and ``tests`` is used by its file.

A name that a refactor stops using stays importable and silently keeps
its module coupled to another; this check reads each module's syntax tree
and names the imports that nothing in the module refers to.
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


def test_the_check_names_an_unused_import():
    source = "import os\nfrom math import inf, pi\n\nx = pi\n"
    assert unused_imports(source) == ["line 1: os", "line 2: inf"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_test_file_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
