"""The DAG printer against a plain tree printer, and the report serialiser.

``_tree_to_string`` is the straightforward recursive printer: it renders
every occurrence of a shared subexpression again.  ``expr.to_string``
renders each distinct node once per call and must give the same text.
"""

from __future__ import annotations

import io
import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import paraweb.report as report_mod
from paraweb.cli import main as cli_main
from paraweb.expr import DEF_MIN_CHARS, ADD, FUN, MUL, OPAQUE, POW, RAT, SYM, Expr, symbol_name, to_string
from paraweb.invariants import cartan_residuals, curvature_chain, wunschmann_residuals
from paraweb.jet import OdeProblem
from paraweb.parser import parse_expr
from paraweb.report import ProblemSpec, analyze_batch, analyze_ode, dumps_report, write_report

from test_expr import _random_expr

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# Reference tree printer


def _tree_to_string(e: Expr, refs: dict[Expr, str] | None = None) -> str:
    """The text of ``e``; a node in ``refs`` prints as its reference."""
    refs = refs or {}
    if e in refs:
        return refs[e]
    k = e.kind
    if k == RAT:
        v = e.payload
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if k == SYM:
        return e.payload
    if k == OPAQUE:
        return symbol_name(e)
    if k == FUN:
        return f"{e.payload}({_tree_to_string(e.children[0], refs)})"
    if k == POW:
        n = e.payload
        base = _tree_atom(e.children[0], refs)
        if n > 0:
            return f"{base}^{n}"
        return f"1/{base}" if n == -1 else f"1/{base}^{-n}"
    if k == MUL:
        s, body = _tree_signed_product(e, refs)
        return "-" + body if s < 0 else body
    parts: list[str] = []
    for t in e.children:
        s, body = _tree_signed_term(t, refs)
        if not parts:
            parts.append("-" + body if s < 0 else body)
        else:
            parts.append((" - " if s < 0 else " + ") + body)
    return "".join(parts)


def _tree_atom(e: Expr, refs: dict[Expr, str]) -> str:
    s = _tree_to_string(e, refs)
    if e in refs:
        return s
    if e.kind in (ADD, MUL) or (e.kind == RAT and (e.payload < 0 or e.payload.denominator != 1)):
        return "(" + s + ")"
    if e.kind == POW:
        return "(" + s + ")"
    return s


def _tree_signed_term(e: Expr, refs: dict[Expr, str]) -> tuple[int, str]:
    if e in refs:
        return 1, refs[e]
    if e.kind == RAT:
        v = e.payload
        body = str(abs(v.numerator)) if v.denominator == 1 else f"{abs(v.numerator)}/{v.denominator}"
        return (-1 if v < 0 else 1), body
    if e.kind == MUL:
        return _tree_signed_product(e, refs)
    return 1, _tree_to_string(e, refs)


def _tree_signed_product(e: Expr, refs: dict[Expr, str]) -> tuple[int, str]:
    coeff = Fraction(1)
    num: list[str] = []
    den: list[str] = []
    den_count = 0
    for c in e.children:
        if c.kind == RAT:
            coeff *= c.payload
        elif c.kind == POW and c.payload < 0:
            n = -c.payload
            b = _tree_atom(c.children[0], refs)
            den.append(b if n == 1 else f"{b}^{n}")
            den_count += 1
        else:
            num.append(_tree_atom(c, refs) if c.kind == ADD else _tree_to_string(c, refs))
    sign = -1 if coeff < 0 else 1
    coeff = abs(coeff)
    if coeff.numerator != 1 or not num:
        num.insert(0, str(coeff.numerator))
    if coeff.denominator != 1:
        den.insert(0, str(coeff.denominator))
        den_count += 1
    body = "*".join(num)
    if den:
        den_body = "*".join(den)
        if den_count > 1:
            den_body = "(" + den_body + ")"
        body = f"{body}/{den_body}"
    return sign, body


# ---------------------------------------------------------------------------
# Printer


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_abstract_chain_prints_as_tree(order):
    ode = OdeProblem.from_rhs(order, "abstract")
    chain = curvature_chain(ode)
    exprs = list(chain.curvatures)
    exprs += [r.expr for r in wunschmann_residuals(ode, chain)]
    exprs += [r.expr for r in cartan_residuals(ode, chain)]
    for e in exprs:
        assert to_string(e) == _tree_to_string(e)


def _record_rendering(monkeypatch) -> list[tuple[Expr, str, object]]:
    """Record (node, text, printer) of each ``to_string`` call of the report."""
    rendered: list[tuple[Expr, str, object]] = []

    def recording(e, printer=None):
        text = to_string(e, printer)
        rendered.append((e, text, printer))
        return text

    monkeypatch.setattr(report_mod, "to_string", recording)
    return rendered


def test_golden_batch_expressions_print_as_tree(monkeypatch):
    rendered = _record_rendering(monkeypatch)
    report, _ = analyze_batch(json.loads((DATA / "golden_problems.json").read_text(encoding="utf-8")))
    assert max(len(text) for _, text, _ in rendered) > 400
    assert all("defs" not in entry for entry in report["reports"])
    for e, text, _ in rendered:
        assert text == _tree_to_string(e)


@pytest.mark.parametrize("order", [5, 6])
def test_report_defs_print_as_tree_with_references(monkeypatch, order):
    # Each string of the entry, and each def, is the tree text of its node
    # with the defined nodes printed as their references.
    rendered = _record_rendering(monkeypatch)
    report, _ = analyze_batch({"kind": "ode", "order": order, "rhs": "abstract"})
    (entry,) = report["reports"]
    ctx = OdeProblem.from_rhs(order, "abstract").context
    nodes: list[Expr] = []
    for text in entry["defs"]:
        nodes.append(parse_expr(text, ctx, defs=nodes))
    refs = {node: f"@{n}" for n, node in enumerate(nodes, 1)}
    assert len(refs) == len(nodes) > 0
    for n, (node, text) in enumerate(zip(nodes, entry["defs"])):
        assert len(text) >= DEF_MIN_CHARS
        assert text == _tree_to_string(node, {m: refs[m] for m in nodes[:n]})
    assert {id(p) for _, _, p in rendered} == {id(rendered[0][2])}
    for e, text, _ in rendered:
        assert text == _tree_to_string(e, refs)
    # only a node asked for twice or more is defined
    uses = Counter(re.findall(r"@\d+", " ".join(entry["defs"] + [text for _, text, _ in rendered])))
    assert all(uses[ref] >= 2 for ref in refs.values())
    # and every node that the texts ask for twice or more, and whose text
    # has at least DEF_MIN_CHARS characters, is defined
    requests: Counter = Counter()
    for node in nodes:
        _count_tree_requests(node, refs, requests)
    for e, _, _ in rendered:
        requests[e] += 1
        if e not in refs:
            _count_tree_requests(e, refs, requests)
    shared = [e for e, n in requests.items() if n >= 2 and e not in refs]
    assert shared
    assert all(len(_tree_to_string(e, refs)) < DEF_MIN_CHARS for e in shared)


def _count_tree_requests(e: Expr, refs: dict[Expr, str], requests: Counter) -> None:
    """Count each node below ``e`` whose text the tree text of ``e`` asks for.

    A node in ``refs`` prints as its reference, so nothing below it is
    asked for; a product's rational factor is folded into its coefficient
    and the base of a negative power is printed in its denominator.
    """
    stack = [e]
    while stack:
        node = stack.pop()
        for c in node.children:
            if node.kind == MUL:
                if c.kind == RAT:
                    continue
                if c.kind == POW and c.payload < 0:
                    c = c.children[0]
            requests[c] += 1
            if c not in refs:
                stack.append(c)


# The abstract order-6 report, in bytes: 392,436 with each shared
# subexpression of at least 128 characters printed once, as a def, and
# 699,347 with only those of at least 1024 characters.
ORDER6_REPORT_BYTES = 392_436


def test_order6_report_size():
    report, _ = analyze_batch({"kind": "ode", "order": 6, "rhs": "abstract"})
    size = len(dumps_report(report).encode("utf-8"))
    assert size <= ORDER6_REPORT_BYTES * 102 // 100, size


def test_random_expressions_print_as_tree():
    rng = random.Random(20261018)
    for _ in range(200):
        e = _random_expr(rng)
        assert to_string(e) == _tree_to_string(e)


# ---------------------------------------------------------------------------
# Serialiser


def _golden_report() -> dict:
    report, _ = analyze_batch(json.loads((DATA / "golden_problems.json").read_text(encoding="utf-8")))
    return report


def test_write_report_matches_dumps_report():
    order5 = {"reports": [analyze_ode(ProblemSpec.from_dict({"kind": "ode", "order": 5, "rhs": "abstract"}))]}
    for document in (_golden_report(), order5):
        stream = io.StringIO()
        write_report(document, stream)
        assert stream.getvalue() == dumps_report(document)


ODE3 = {"kind": "ode", "order": 3, "rhs": "x2^3"}


def _report_document(name: str) -> dict:
    if name == "golden":
        return _golden_report()
    if name == "empty":
        return {"reports": []}
    if name == "errors":
        return analyze_batch({"problems": [{"kind": "pde"}, {"kind": "ode", "order": 3, "rhs": "x2^"}]})[0]
    # one entry listed three times among an entry listed once and an error
    return analyze_batch({"problems": [ODE3, {"kind": "web", "k": 2, "w": "x0+x1+x2"}, ODE3,
                                       {"kind": "pde"}, ODE3]})[0]


class _CountingEncoder(json.JSONEncoder):
    def __init__(self, encoded: list):
        super().__init__(sort_keys=True, ensure_ascii=False, indent=2)
        self.encoded = encoded

    def encode(self, o):
        self.encoded.append(o)
        return super().encode(o)


@pytest.mark.parametrize("name", ["empty", "errors", "thrice", "golden"])
def test_write_report_encodes_a_repeated_entry_once(monkeypatch, name):
    document = _report_document(name)
    text = dumps_report(document)
    encoded: list = []
    monkeypatch.setattr(report_mod, "_ENCODER", _CountingEncoder(encoded))
    stream = io.StringIO()
    write_report(document, stream)
    assert stream.getvalue() == text
    # an entry listed more than once is encoded once; the rest stream
    repeated = [document["reports"][0]] if name == "thrice" else []
    assert [id(o) for o in encoded] == [id(o) for o in repeated]


def test_cli_writes_golden_report(tmp_path, capsys):
    golden = (DATA / "golden_report.json").read_text(encoding="utf-8")
    out = tmp_path / "report.json"
    assert cli_main(["analyze", str(DATA / "golden_problems.json"), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == golden
    capsys.readouterr()
    assert cli_main(["analyze", str(DATA / "golden_problems.json")]) == 0
    assert capsys.readouterr().out == golden
