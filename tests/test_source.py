"""Checks on the package source that need no linter."""

import ast
from pathlib import Path

import pytest

import megaheat

MODULES = sorted(Path(megaheat.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    """The names a module imports and never uses; a name listed in its
    __all__ counts as used, and __future__ imports are not names."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_finds_an_unused_import():
    tree = ast.parse("import os\nimport sys as system\nfrom a import b, c\n__all__ = ['c']\nprint(os)\n")
    assert _unused_imports(tree) == [(2, "system"), (3, "b")]
