"""Static checks that stand in for a linter: no module of the package or of
its tests imports a dead name, no package module defines a dead private one,
and the package exports exactly what it imports."""

import ast
from pathlib import Path

import pytest

import aigopt

MODULES = sorted(
    p for p in Path(aigopt.__file__).parent.glob("*.py") if p.name != "__init__.py"
) + sorted(Path(__file__).parent.glob("*.py"))


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


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _used_names(stmt) -> set[str]:
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_private_definition_is_used():
    """A module-level ``_name`` (function, class or assignment) is read by
    some top-level statement of the package other than its own definition."""
    statements = [
        (path.name, stmt)
        for path in Path(aigopt.__file__).parent.glob("*.py")
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    uses = [_used_names(stmt) for _, stmt in statements]
    dead = [
        f"{module}: {name}"
        for i, (module, stmt) in enumerate(statements)
        for name in _defined_names(stmt)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in used for j, used in enumerate(uses) if j != i)
    ]
    assert dead == []


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
