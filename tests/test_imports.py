"""Static checks that stand in for a linter: no module imports a dead name,
and the package exports exactly what it imports."""

import ast
from pathlib import Path

import pytest

import aigopt

MODULES = sorted(
    p for p in Path(aigopt.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_package_exports_match_its_imports():
    """Every name ``aigopt/__init__.py`` imports is exported, and every export
    resolves, so a re-export lost when code moves between modules shows here."""
    tree = ast.parse(Path(aigopt.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(imported ^ set(aigopt.__all__)) == []
    assert [name for name in aigopt.__all__ if not hasattr(aigopt, name)] == []
