"""Every name a module under src/renforge imports is read somewhere in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "renforge"
# A package's __init__.py imports names to re-export them.
MODULES = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_the_checker_finds_an_unread_import():
    assert unread_imports("import json\nfrom a.b import c, d as e\nprint(c)\n") == [
        "json (line 1)", "e (line 2)"]
    assert unread_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(PACKAGE)))
def test_module_reads_every_name_it_imports(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
