"""Every public name of ``src/paraweb`` is read by the package itself,
and only decisions take a zero tester.

A name in a module's ``__all__`` that nothing in ``src/paraweb`` reads,
apart from its own definition, ``__all__`` and the re-exports of
``__init__.py``, is code that no report runs: it belongs in
``tests/oracles.py``, or nowhere.  Only the library entry points listed
below are exempt.

What the package builds depends on the problem alone, and the seed only
picks the zero test's sample points, so a public callable that takes a
``ZeroTester`` is one of the decisions listed below.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import symtable
import types
from pathlib import Path

import paraweb

SRC = Path(paraweb.__file__).parent
# Entry points for library callers that the analysis path itself never calls.
ENTRY_POINTS = {("expr", "eval_numeric"), ("zerotest", "is_zero"), ("report", "dumps_report")}
# The public callables that take a zero tester; reports decide in private steps.
DECISIONS = {("webs", "check_nondegenerate"), ("webs", "hirota_verdicts"), ("webs", "flatness_verdict")}

SOURCES = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
TREES = {m: ast.parse(text) for m, text in SOURCES.items()}
TABLES = {m: symtable.symtable(text, f"{m}.py", "exec") for m, text in SOURCES.items()}


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _local_names(module: str, source: str, name: str) -> set[str]:
    """The names under which module ``module`` sees ``source``'s ``name``."""
    if module == source:
        return {name}
    return {alias.asname or alias.name
            for node in TREES[module].body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == source
            for alias in node.names if alias.name == name}


def _reads(table: symtable.SymbolTable, name: str, skip: str | None) -> bool:
    """Whether a scope of ``table`` reads the module-level ``name``; the
    top-level definition called ``skip`` and its body are left out."""
    try:
        sym = table.lookup(name)
        if sym.is_referenced() and sym.is_global():
            return True
    except KeyError:
        pass
    return any(_reads(child, name, None) for child in table.get_children() if child.get_name() != skip)


def unread_exports() -> list[tuple[str, str]]:
    out = []
    for source, tree in TREES.items():
        for name in _exports(tree):
            skip = name  # a function or class does not read itself
            if not any(_reads(TABLES[m], local, skip if m == source else None)
                       for m in TREES for local in _local_names(m, source, name)):
                out.append((source, name))
    return out


def test_every_export_is_read_inside_the_package():
    assert [key for key in unread_exports() if key not in ENTRY_POINTS] == []


def test_entry_points_are_exported_and_unread():
    # An entry point that the package starts to read, or stops exporting,
    # leaves the list.
    assert sorted(unread_exports()) == sorted(ENTRY_POINTS)


def test_the_check_sees_a_test_only_export():
    # Read by another function; read by no one; read only by itself;
    # read only through a parameter of the same name.
    source = ("def used(): return 1\n"
              "def unused(): return used()\n"
              "def recursive(n): return recursive(n - 1) if n else 0\n"
              "def shadowed(): return 2\n"
              "def other(shadowed): return shadowed\n")
    table = symtable.symtable(source, "probe.py", "exec")
    assert _reads(table, "used", "used")
    assert not _reads(table, "unused", "unused")
    assert not _reads(table, "recursive", "recursive")
    assert not _reads(table, "shadowed", "shadowed")


def _callables(module):
    """(name, function) for each public function of ``module``, and each
    public method or ``__init__`` of its public classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                fn = getattr(raw, "__func__", raw)  # class and static methods
                if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                    yield f"{name}.{attr}", fn


def takes_a_tester(fn) -> bool:
    return any(p.name == "zero" or "ZeroTester" in str(p.annotation)
               for p in inspect.signature(fn).parameters.values())


def test_only_decisions_take_a_zero_tester():
    takers = {(m, name) for m in SOURCES
              for name, fn in _callables(importlib.import_module(f"paraweb.{m}")) if takes_a_tester(fn)}
    # a decision that stops taking a tester leaves the list
    assert takers == DECISIONS


def test_the_guard_sees_a_tester_parameter():
    # By name or by annotation, on a function, a constructor, a method or
    # a class method; not on a private function, nor on a return value.
    source = ("class Built:\n"
              "    def __init__(self, web, tester: 'ZeroTester'): ...\n"
              "    def chain(self, zero): ...\n"
              "    def size(self, trials: int = 8) -> 'ZeroTester': ...\n"
              "    @classmethod\n"
              "    def parsed(cls, text, zero=None): ...\n"
              "def build(web): ...\n"
              "def decide(web, tester: 'ZeroTester'): ...\n"
              "def _private(zero): ...\n")
    probe = types.ModuleType("probe")
    exec(source, probe.__dict__)
    takers = sorted(name for name, fn in _callables(probe) if takes_a_tester(fn))
    assert takers == ["Built.__init__", "Built.chain", "Built.parsed", "decide"]
