"""Source hygiene: every name a package module imports is used in it,
every private function, class or method the package defines is referenced
somewhere in the package, every annotation in the package resolves, only
``rewrite._Term`` edits a term's legs and its bracket set, and every name
the benchmark reaches for exists."""

import ast
import functools
import importlib
import importlib.util
import inspect
import pathlib
import typing

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dyalg"
BENCHMARK = ROOT / "benchmark"
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


def _package_functions():
    """(qualified name, function) of every function and method defined at
    the top level of a package module or in one of its classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        name = "dyalg" if path.stem == "__init__" else f"dyalg.{path.stem}"
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != name:
                continue
            members = (vars(obj).values() if inspect.isclass(obj) else [obj])
            for member in members:
                for f in (getattr(member, "fget", None),
                          getattr(member, "func", None),
                          getattr(member, "__func__", None), member):
                    f = inspect.unwrap(f) if callable(f) else None
                    if inspect.isfunction(f) and f.__module__ == name:
                        yield f"{name}.{f.__qualname__}", f
                        break


def test_every_annotation_resolves():
    functions = dict(_package_functions())
    assert len(functions) > 300
    unresolved = []
    for name, f in sorted(functions.items()):
        try:
            typing.get_type_hints(f)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []


_TERM_RECORDS = {"wire_to", "wire_from", "mus"}
_MUTATORS = {"pop", "popitem", "clear", "update", "setdefault",
             "add", "remove", "discard"}


def _leg_edits(source: str, owner: str = "_Term") -> list[str]:
    """The assignments to, deletions from and mutating calls on an
    attribute named ``wire_to``, ``wire_from`` or ``mus`` outside class
    ``owner``."""
    tree = ast.parse(source)
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == owner
              for node in ast.walk(cls)}

    def record(node) -> bool:  # x.wire_to or x.wire_to[...]
        if isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr in _TERM_RECORDS

    edits = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if (isinstance(node, (ast.Attribute, ast.Subscript))
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and record(node)):
            verb = "del" if isinstance(node.ctx, ast.Del) else "store"
            edits.append((node.lineno, f"{verb} {ast.unparse(node)}"))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATORS and record(node.func.value)):
            edits.append((node.lineno, f"call {ast.unparse(node)}"))
    return [f"line {line}: {edit}" for line, edit in sorted(edits)]


def test_only_term_edits_legs():
    assert _leg_edits((PACKAGE / "rewrite.py").read_text()) == []


def test_leg_edit_check_sees_edits_outside_term():
    source = ("class _Term:\n"
              "    def cut(self, p):\n        del self.wire_to[p]\n"
              "def rule(t, p, q):\n"
              "    t.wire_to.pop(p), t.dec.pop(p)\n"
              "    t.wire_from[q] = t.wire_to[p]\n"
              "    del t.wire_from[q]\n"
              "    t.wire_to = dict(t.wire_from)\n"
              "    t.wire_from.update({}), t.wire_to.get(p)\n"
              "    t.mus.add(p), t.mus.discard(q), q in t.mus\n")
    assert _leg_edits(source) == [
        "line 5: call t.wire_to.pop(p)", "line 6: store t.wire_from[q]",
        "line 7: del t.wire_from[q]", "line 8: store t.wire_to",
        "line 9: call t.wire_from.update({})", "line 10: call t.mus.add(p)",
        "line 10: call t.mus.discard(q)"]


def _load(path: pathlib.Path):
    """Execute a benchmark file as a fresh module, not registered in
    ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_targets_resolve():
    # read without install(), which would rebind the package's functions
    targets = _load(BENCHMARK / "tracer.py").TARGETS
    missing = []
    for mod_name, attrs in targets.items():
        module = importlib.import_module(f"dyalg.{mod_name}")
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{mod_name}.{attr}")
    assert missing == []


def test_benchmark_workloads_import():
    items = _load(BENCHMARK / "workloads.py").ITEMS
    assert all(callable(build) for build in items.values())
