"""Source hygiene: every name a package module imports is used in it, and
every private function, class or method the package defines is referenced
somewhere in the package."""

import ast
import functools
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dyalg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_sees_unused_names():
    source = ("import os\nimport os.path\nfrom x import (a, b as c)\n"
              "from __future__ import annotations\nprint(a, os.sep)\n")
    assert _unused_imports(source) == ["line 3: c"]


def _private_definitions(tree) -> list[tuple[int, str]]:
    """(line, name) of the functions, classes and methods whose names start
    with one underscore or two without ending in two (not dunders)."""
    return sorted((node.lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and node.name.startswith("_")
                  and not node.name.endswith("__"))


def _references(tree) -> set[str]:
    """The names read as an ``ast.Name`` or an ``ast.Attribute``."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _unreferenced(source: str, references: set[str]) -> list[str]:
    return [f"line {line}: {name}"
            for line, name in _private_definitions(ast.parse(source))
            if name not in references]


@functools.cache
def _package_references() -> frozenset:
    return frozenset().union(*(_references(ast.parse(p.read_text()))
                               for p in PACKAGE.glob("*.py")))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_private_definitions_are_referenced(path):
    assert _unreferenced(path.read_text(), _package_references()) == []


def test_unreferenced_check_sees_unused_private_definitions():
    source = ("def _used():\n    pass\n"
              "def _unused():\n    pass\n"
              "class _Box:\n"
              "    def __init__(self):\n        self._read()\n"
              "    def _read(self):\n        pass\n"
              "    def _stale(self):\n        pass\n"
              "_used(), _Box()\n")
    assert _unreferenced(source, _references(ast.parse(source))) == [
        "line 3: _unused", "line 10: _stale"]
