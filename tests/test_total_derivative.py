"""The total derivative applied as a derivation, against the partials-first path.

``TotalDerivative.apply`` pushes X through sums, products and powers and
differentiates only at symbols and function nodes; ``VectorField.apply``
builds every partial derivative first and is kept as the reference.  The
two give different canonical trees for the same function, so the tests
compare them by the exact zero test, not by identity.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from paraweb import jet
from paraweb.expr import (
    ADD,
    FUN,
    MUL,
    POW,
    RAT,
    ZERO,
    add,
    add_iter,
    differentiate,
    fun,
    mul,
    mul_iter,
    neg,
    pow_int,
    rational,
    sub,
    sym,
)
from paraweb.invariants import cartan_residuals, curvature_chain, wunschmann_residuals
from paraweb.jet import OdeProblem, TotalDerivative, VectorField
from paraweb.parser import parse_expr
from paraweb.webs import web_context
from paraweb.zerotest import Verdict, ZeroTester

from oracles import ScalingRule, cofactor_chain
from test_jet import CONCRETE_RHS

DATA = Path(__file__).parent / "data"
ZT = ZeroTester()
EXACT = ZeroTester(trials=8, tolerance=0)


def reference_apply(x: VectorField, e):
    """X(e) by the partials-first path: sum_c X^c * de/dc."""
    return VectorField(x.frame, x.comps).apply(e)


def freeze_functions(e, memo: dict):
    """``e`` with each function node replaced by a free symbol of its own.

    Both paths differentiate a function node by the same rule, so their
    results agree as rational functions of the coordinates, the
    F-derivatives and the function nodes taken as free variables; the
    exact zero test decides that.  (The float path is no judge here: the
    magnitude it scales its tolerance by is far too small at a negative
    power of a nearly cancelling sum, so equal trees can read as nonzero.)
    """
    got = memo.get(e)
    if got is None:
        if e.kind == FUN:
            got = sym(f"fn{e.uid}")
        elif e.kind == ADD:
            got = add_iter(freeze_functions(c, memo) for c in e.children)
        elif e.kind == MUL:
            got = mul_iter(freeze_functions(c, memo) for c in e.children)
        elif e.kind == POW:
            got = pow_int(freeze_functions(e.children[0], memo), e.payload)
        else:
            got = e
        memo[e] = got
    return got


# ---------------------------------------------------------------------------
# Random expressions on jet space

rationals = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 1, 2, 3]))
leaves = st.one_of(
    st.integers(0, 5).map(lambda i: ("coord", i)),
    st.lists(st.tuples(st.integers(0, 5), st.integers(1, 2)), max_size=2).map(lambda o: ("F", o)),
    rationals.map(lambda q: ("rat", q)),
)
# Function arguments stay small, so that exp of them neither overflows a
# float nor sends every sample point to a pole.
arguments = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda cs: ("add", cs)),
        st.lists(inner, min_size=1, max_size=2).map(lambda cs: ("mul", cs)),
    ),
    max_leaves=4,
)
recipes = st.recursive(
    st.one_of(leaves, st.tuples(st.sampled_from(["exp", "sin", "log", "sqrt"]), arguments)),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=4).map(lambda cs: ("add", cs)),
        st.lists(inner, min_size=1, max_size=3).map(lambda cs: ("mul", cs)),
        st.tuples(inner, st.sampled_from([-3, -2, -1, 2, 3])).map(lambda a: ("pow", *a)),
    ),
    max_leaves=10,
)


def build(recipe, ode: OdeProblem):
    tag = recipe[0]
    coords = ode.coords
    if tag == "coord":
        return sym(coords[recipe[1] % len(coords)])
    if tag == "F":
        orders: dict[str, int] = {}
        for i, n in recipe[1]:
            c = coords[i % len(coords)]
            orders[c] = orders.get(c, 0) + n
        return ode.context.opaque_symbol("F", orders)
    if tag == "rat":
        return rational(recipe[1])
    if tag == "add":
        return add_iter(build(r, ode) for r in recipe[1])
    if tag == "mul":
        return mul_iter(build(r, ode) for r in recipe[1])
    if tag == "pow":
        return pow_int(build(recipe[1], ode), recipe[2])
    arg = build(recipe[1], ode)
    if tag in ("log", "sqrt"):
        # keep the argument positive, so every sample is in the domain
        arg = add(rational(1), pow_int(arg, 2))
    return fun(tag, arg)


def concrete_rhs(order: int) -> list[str]:
    k = order - 1
    return [f"x{k}^3", f"exp(x{k})", f"x{k}^2*x1/(1+x0^2) + t*x{k - 1}"]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5), st.integers(0, 3), recipes)
def test_apply_matches_the_partials_first_path(order, which, recipe):
    rhs = "abstract" if which == 3 else concrete_rhs(order)[which]
    ode = OdeProblem.from_rhs(order, rhs)
    try:
        e = build(recipe, ode)
    except ZeroDivisionError:
        assume(False)
    x = ode.total_derivative
    assert isinstance(x, TotalDerivative)
    got, want = x.apply(e), reference_apply(x, e)
    memo: dict = {}
    diff = sub(freeze_functions(got, memo), freeze_functions(want, memo))
    assert EXACT.verdict(diff) is Verdict.ZERO, str(e)
    # a second application is a memo hit and returns the same node
    assert x.apply(e) is got


def test_apply_on_leaves_is_the_reference_node():
    ode = OdeProblem.abstract(4)
    x = ode.total_derivative
    for e in (sym("t"), sym("x0"), sym("x3"), ode.rhs, ode.context.opaque_symbol("F", {"x1": 2}),
              rational(7), fun("sin", sym("x2"))):
        assert x.apply(e) is reference_apply(x, e)


# ---------------------------------------------------------------------------
# The curvature chain against the chain built with the reference field

CHAIN_PROBLEMS = [(order, "abstract") for order in range(2, 7)] + [
    (order, rhs) for order in (2, 3, 4, 5) for rhs in concrete_rhs(order)
]


@pytest.mark.parametrize("order,rhs", [(order, "abstract") for order in range(2, 8)] + CONCRETE_RHS)
def test_chain_is_the_cofactor_chain(order, rhs):
    # The recursion against the binomial sums over the scaling cofactors:
    # equal as functions, not as trees, so compared by the exact zero test
    # with every function node frozen to a symbol of its own.
    ode = OdeProblem.from_rhs(order, rhs)
    chain = curvature_chain(ode)
    fields, curvatures = cofactor_chain(ode)
    pairs = [(got.comp(c), want.comp(c)) for got, want in zip(chain.fields, fields, strict=True)
             for c in ode.coords]
    pairs += zip(chain.curvatures, curvatures, strict=True)
    memo: dict = {}
    for n, (got, want) in enumerate(pairs):
        diff = sub(freeze_functions(got, memo), freeze_functions(want, memo))
        assert EXACT.verdict(diff) is Verdict.ZERO, n


@pytest.mark.parametrize("order,rhs", CHAIN_PROBLEMS)
def test_curvatures_match_the_reference_chain(order, rhs, monkeypatch):
    got = curvature_chain(OdeProblem.from_rhs(order, rhs)).curvatures
    with monkeypatch.context() as m:
        m.setattr(TotalDerivative, "apply", VectorField.apply)
        want = curvature_chain(OdeProblem.from_rhs(order, rhs)).curvatures
    assert len(got) == len(want) == order - 1
    for j, (a, b) in enumerate(zip(got, want)):
        assert EXACT.verdict(sub(a, b)) is Verdict.ZERO, f"K_{j}"


# ---------------------------------------------------------------------------
# One X per problem, freed with the problem


def test_one_total_derivative_per_problem():
    ode = OdeProblem.abstract(4)
    x = ode.total_derivative
    assert ode.total_derivative is x
    cofactors = ScalingRule(ode).cofactors(ode.k + 1)
    # the cofactors went through the problem's X ...
    assert all(g in x._memo for g in cofactors[:-1])
    # ... and the chain and the residuals reuse it
    chain = curvature_chain(ode)
    wunschmann_residuals(ode, chain)
    cartan_residuals(ode, chain)
    assert ode.total_derivative is x
    assert chain.curvatures[ode.k - 1] in x._memo


class _Probe:
    pass


def test_total_derivative_is_freed_with_its_problem():
    ode = OdeProblem.abstract(4)
    chain = curvature_chain(ode)
    residuals = wunschmann_residuals(ode, chain) + cartan_residuals(ode, chain)
    x = ode.total_derivative
    assert x._memo
    # Expression nodes are interned for the life of the process, so a
    # weakly referenced probe stands in for the memo's contents.
    probe = _Probe()
    x._memo[probe] = ZERO
    x_ref, probe_ref = weakref.ref(x), weakref.ref(probe)
    del ode, chain, residuals, x, probe
    gc.collect()
    assert x_ref() is None
    assert probe_ref() is None


def test_jet_keeps_no_module_level_cache():
    containers = (dict, list, set, weakref.WeakKeyDictionary, weakref.WeakValueDictionary)
    names = [n for n, v in vars(jet).items() if not n.startswith("__") and isinstance(v, containers)]
    assert names == []
    assert [n for n, v in vars(jet).items() if hasattr(v, "cache_info")] == []


# ---------------------------------------------------------------------------
# The golden report's bytes before and after the derivation

# SHA-256 of tests/data/golden_report.json as written by the partials-first path.
PARTIALS_FIRST_GOLDEN_SHA256 = "3016a06f59266f6a509a84f87129bcef39968eef0105d0c6e69d659186e218f6"
# The expressions of the order-2 abstract entry that the partials-first
# path printed differently, by residual name.
PARTIALS_FIRST_STRINGS = {
    "cartan[projective]": (
        "-2*F_t_x0_x1 - 3*x1*F_x0_x0_x1/2 - 3*F*F_x0_x1_x1/2 - 3*F_x1_x1*F_x0/2 -"
        " F_x1*(-F_x0_x1/2 + x1*F_x0_x1_x1/2 + F*F_x1_x1_x1/2 + F_t_x1_x1/2) +"
        " x1*F_t_x0_x1_x1/2 + F*F_t_x1_x1_x1/2 + F_x1_x1_x1*F_t/2 + F_t_t_x1_x1/2 +"
        " 3*F_x1*F_x0_x1/2 + 3*F_x0_x0 + x1*(-F_x0_x0_x1/2 + x1*F_x0_x0_x1_x1/2 +"
        " F*F_x0_x1_x1_x1/2 + F_x1_x1_x1*F_x0/2 + F_t_x0_x1_x1/2) +"
        " F*(x1*F_x0_x1_x1_x1/2 + F*F_x1_x1_x1_x1/2 + F_x1*F_x1_x1_x1/2 +"
        " F_t_x1_x1_x1/2)"
    ),
    "identity[cartan-coordinate]": (
        "-x1*F*F_x0_x1_x1_x1 - F_x1*(-F_x0_x1/2 + x1*F_x0_x1_x1/2 + F*F_x1_x1_x1/2 +"
        " F_t_x1_x1/2) - x1*F_x1_x1_x1*F_x0/2 - x1*F_t_x0_x1_x1/2 - F*F_t_x1_x1_x1/2"
        " - F_x1*F_x0_x1/2 - F_x1_x1_x1_x1*F^2/2 - F_x0_x0_x1_x1*x1^2/2 +"
        " x1*F_x1*F_x0_x1_x1/2 + x1*F_x0_x0_x1/2 + F_x1*F_t_x1_x1/2 +"
        " x1*(-F_x0_x0_x1/2 + x1*F_x0_x0_x1_x1/2 + F*F_x0_x1_x1_x1/2 +"
        " F_x1_x1_x1*F_x0/2 + F_t_x0_x1_x1/2) + F*(x1*F_x0_x1_x1_x1/2 +"
        " F*F_x1_x1_x1_x1/2 + F_x1*F_x1_x1_x1/2 + F_t_x1_x1_x1/2)"
    ),
}


# The hierarchy and Lax expressions of the k = 2 non-web entry as they
# were printed while they were built from their definitions, by residual
# name; reports now print them as multiples of hirota[0,1,2].  The
# separable web's are 0 (hierarchy) or not listed (Lax) either way.
DEFINITION_WEB_STRINGS = {
    "hierarchy[1,2]": "-3*x0*(1 + x1*x2)/2 - x2*(1 + x0*x1)/2 + 2*x1*(1 + x0*x2)",
    "lax[1,2;x0;t^1]": (
        "-9*x0/(2*(1 + x1*x2)) - 3*x2*(1 + x0*x1)/(2*(1 + x1*x2)^2) + 6*x1*(1 + x0*x2)/(1 + x1*x2)^2"
    ),
    "lax[1,2;x0;t^2]": (
        "-2*x1*(1 + x0*x2)/(1 + x1*x2)^2 + x2*(1 + x0*x1)/(2*(1 + x1*x2)^2) + 3*x0/(2*(1 + x1*x2))"
    ),
}


def _put_back(text: str, entry: dict, ctx, old_strings: dict[str, str]) -> str:
    """``text`` with each expression of ``entry`` named in ``old_strings``
    replaced by its old string, after checking that the two differ, are
    equal by the exact zero test and that the new one occurs once."""
    changed = {r["name"]: r["expression"] for r in entry["residuals"] if r["name"] in old_strings}
    assert changed.keys() == old_strings.keys()
    for name, new in changed.items():
        old = old_strings[name]
        assert new != old
        assert EXACT.verdict(sub(parse_expr(new, ctx), parse_expr(old, ctx))) is Verdict.ZERO, name
        assert text.count(json.dumps(new)) == 1
        text = text.replace(json.dumps(new), json.dumps(old))
    return text


def test_golden_strings_changed_only_in_tree_shape():
    """The regenerated golden report differs from the partials-first one
    in two expression strings of the order-2 abstract entry and in the
    hierarchy and Lax strings of the k = 2 non-web entry, and each pair is
    equal by the exact zero test.  Putting the old strings back, and the
    k = 2 web's ``jacobi_max`` line that reports no longer print, gives
    the old file byte for byte, so every other entry (the separable web
    included) is unchanged."""
    text = (DATA / "golden_report.json").read_text(encoding="utf-8")
    reports = json.loads(text)["reports"]
    entry = reports[2]
    assert entry["problem"]["order"] == 2 and entry["problem"]["rhs"] == "abstract"
    before = _put_back(text, entry, OdeProblem.abstract(2).context, PARTIALS_FIRST_STRINGS)
    web_entry = reports[4]
    assert web_entry["problem"]["k"] == 2 and web_entry["verdicts"]["hirota"] is False
    assert "defs" not in web_entry
    before = _put_back(before, web_entry, web_context(2), DEFINITION_WEB_STRINGS)
    ricci = '        "ricci_null_max": 0.0\n'
    assert before.count(ricci) == 1
    before = before.replace(ricci, '        "jacobi_max": 0.0,\n' + ricci)
    assert hashlib.sha256(before.encode("utf-8")).hexdigest() == PARTIALS_FIRST_GOLDEN_SHA256


# ---------------------------------------------------------------------------
# Each sum collected once, against a sum collected per node
#
# X, ``differentiate`` and the chain hand the terms of an inner sum (the
# Leibniz terms of a product, the scaled components of a chain field) to
# the enclosing sum, which collects them once.  The staged versions below
# collect every inner sum first, as these were first written.  Collection
# is confluent, so both give the same node.


def staged_leibniz(e, derive):
    cs = e.children
    terms = []
    for i, c in enumerate(cs):
        dc = derive(c)
        if dc is not ZERO:
            terms.append(mul_iter(cs[:i] + (dc,) + cs[i + 1:]))
    return add_iter(terms)


def staged_differentiate(e, v: str, memo: dict):
    got = memo.get((e, v))
    if got is None:
        if e.kind == ADD:
            got = add_iter([staged_differentiate(c, v, memo) for c in e.children])
        elif e.kind == MUL:
            got = staged_leibniz(e, lambda c: staged_differentiate(c, v, memo))
        elif e.kind == POW:
            base, n = e.children[0], e.payload
            db = staged_differentiate(base, v, memo)
            got = ZERO if db is ZERO else mul(rational(n), pow_int(base, n - 1), db)
        elif e.kind == FUN:
            arg = e.children[0]
            da = staged_differentiate(arg, v, memo)
            outer = {
                "exp": lambda: e,
                "log": lambda: pow_int(arg, -1),
                "sin": lambda: fun("cos", arg),
                "cos": lambda: neg(fun("sin", arg)),
                "sqrt": lambda: mul(rational(Fraction(1, 2)), pow_int(e, -1)),
            }[e.payload]
            got = ZERO if da is ZERO else mul(outer(), da)
        else:
            got = differentiate(e, v)  # a rational or a symbol: no sum is built
        memo[(e, v)] = got
    return got


def staged_derive(x: TotalDerivative, e, memo: dict, diff_memo: dict):
    got = memo.get(e)
    if got is None:
        if e.kind == RAT:
            got = ZERO
        elif e.kind == ADD:
            got = add_iter([staged_derive(x, c, memo, diff_memo) for c in e.children])
        elif e.kind == MUL:
            got = staged_leibniz(e, lambda c: staged_derive(x, c, memo, diff_memo))
        elif e.kind == POW:
            base, n = e.children[0], e.payload
            db = staged_derive(x, base, memo, diff_memo)
            got = ZERO if db is ZERO else mul(rational(n), pow_int(base, n - 1), db)
        else:
            got = add_iter([mul(xc, staged_differentiate(e, c, diff_memo)) for c, xc in x.comps.items()])
        memo[e] = got
    return got


def staged_chain(ode: OdeProblem):
    """The chain's fields and curvatures: each component of
    U_{i+1} = [X, U_i] + m U_i collected once over its three terms, and
    each step of the back-substitution built by ``plus``."""
    k = ode.k
    x = ode.total_derivative
    mult = ScalingRule(ode).multiplier
    fields = [VectorField(ode.coords, {f"x{k}": rational(1)})]
    for _ in range(k + 1):
        u = fields[-1]
        fields.append(VectorField(ode.coords, {
            c: add_iter([x.apply(u.comp(c)), neg(u.apply(x.comp(c))), mul(mult, u.comp(c))])
            for c in ode.coords}))
    rest = fields[k + 1]
    coeffs = [ZERO] * (k + 1)
    for m in range(k + 1):
        i = k - m
        coeffs[i] = mul(rational((-1) ** i), rest.comp(f"x{m}"))
        rest = rest.plus(fields[i].scaled(neg(coeffs[i])))
    assert all(v is ZERO for c, v in rest.comps.items() if c != "t")
    return fields, [mul(rational((-1) ** (j + 1)), coeffs[j]) for j in range(k)]


@pytest.mark.parametrize("order,rhs", CHAIN_PROBLEMS[:4] + [(3, rhs) for rhs in concrete_rhs(3)])
def test_chain_is_the_staged_chain(order, rhs):
    ode = OdeProblem.from_rhs(order, rhs)
    chain = curvature_chain(ode)
    fields, curvatures = staged_chain(ode)
    for got, want in zip(chain.fields, fields, strict=True):
        assert all(got.comp(c) is want.comp(c) for c in ode.coords)
    assert all(got is want for got, want in zip(chain.curvatures, curvatures, strict=True))


def test_derivatives_of_chain_components_are_the_staged_nodes():
    ode = OdeProblem.abstract(4)
    chain = curvature_chain(ode)
    x = ode.total_derivative
    roots = [e for f in chain.fields for e in f.comps.values()] + list(chain.curvatures)
    memo: dict = {}
    diff_memo: dict = {}
    for e in roots:
        assert x.apply(e) is staged_derive(x, e, memo, diff_memo)
        for c in ode.coords:
            assert differentiate(e, c) is staged_differentiate(e, c, diff_memo)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5), st.integers(0, 3), recipes)
def test_derivatives_are_the_staged_nodes(order, which, recipe):
    rhs = "abstract" if which == 3 else concrete_rhs(order)[which]
    ode = OdeProblem.from_rhs(order, rhs)
    try:
        e = build(recipe, ode)
    except ZeroDivisionError:
        assume(False)
    x = ode.total_derivative
    diff_memo: dict = {}
    assert x.apply(e) is staged_derive(x, e, {}, diff_memo)
    for c in ode.coords:
        assert differentiate(e, c) is staged_differentiate(e, c, diff_memo)


# Counts of a fresh interpreter once each sum was collected once, scaled
# sums and differences were collected as coefficients and the chain was
# built by the recursion U_{i+1} = [X, U_i] + m U_i.  The abstract
# order-6 analysis interns 11,246 nodes (11,952 with the chain built from
# the scaling cofactors, 12,782 also with a product built for each term
# of a scaled sum and a (-1) * b node per difference, 15,618 also with a
# collected Leibniz sum per product and each chain field added term by
# term); the order-5 curvature chain interns 200 sums (206 from the
# cofactors with each component collected once, 228 with the chain's
# fields added term by term, 646 with both).
ORDER6_NODES = 11_246
ORDER5_CHAIN_SUMS = 200


def fresh_count(code: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(jet.__file__).resolve().parents[1]))
    script = "from paraweb import expr\n" + code
    return int(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True).stdout)


def test_order6_analysis_builds_no_throwaway_sums():
    nodes = fresh_count(
        "from paraweb.report import analyze_batch\n"
        "analyze_batch({'problems': [{'kind': 'ode', 'order': 6, 'rhs': 'abstract'}]})\n"
        "print(len(expr._INTERN))"
    )
    assert nodes <= ORDER6_NODES * 102 // 100, nodes


def test_chain_collects_each_component_once():
    sums = fresh_count(
        "from paraweb.invariants import curvature_chain\n"
        "from paraweb.jet import OdeProblem\n"
        "curvature_chain(OdeProblem.abstract(5))\n"
        "print(sum(n.kind == expr.ADD for n in expr._INTERN.values()))"
    )
    assert sums <= ORDER5_CHAIN_SUMS * 102 // 100, sums
