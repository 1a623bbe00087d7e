"""Every public name of ``src/paraweb`` is read by the package itself.

A name in a module's ``__all__`` that nothing in ``src/paraweb`` reads,
apart from its own definition, ``__all__`` and the re-exports of
``__init__.py``, is code that no report runs: it belongs in
``tests/oracles.py``, or nowhere.  Only the library entry points listed
below are exempt.
"""

from __future__ import annotations

import ast
import symtable
from pathlib import Path

import paraweb

SRC = Path(paraweb.__file__).parent
# Entry points for library callers that the analysis path itself never calls.
ENTRY_POINTS = {("expr", "eval_numeric"), ("zerotest", "is_zero"), ("report", "dumps_report")}

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
