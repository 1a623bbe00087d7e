"""Veronese webs: Hirota/Lax equivalence, connections, metric data,
Bryant forms, Ricci and bi-Hamiltonian checks.

Numeric oracles (finite-difference curvature, the decomposable-bivector
expansion of the Schouten bracket) are implemented here, independently
of the library code paths they check; the Schouten bracket of the
bi-Hamiltonian pencil is built in oracles.py.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from paraweb.expr import (
    MUL,
    RAT,
    ZERO,
    add,
    add_iter,
    differentiate,
    div,
    eval_numeric,
    free_symbols,
    mul,
    neg,
    pow_int,
    rational,
    sub,
    sym,
    to_string,
)
from paraweb.jet import VectorField, lie_bracket
from paraweb.parser import parse_expr
from paraweb.report import ProblemSpec, analyze_web, dumps_report
import paraweb.spectral as spectral
import paraweb.webs as webs
from paraweb.webs import (
    DegenerateWebError,
    WebError,
    bryant_forms,
    canonical_connection,
    check_nondegenerate,
    conformal_metric,
    flatness_verdict,
    hirota_residuals,
    hirota_verdicts,
    make_web,
    null_curve,
    omega_coefficient_forms,
    web_context,
    weyl_form,
)
from paraweb.zerotest import Verdict, ZeroTester

import oracles
from conftest import (
    NONFLAT_HIGH_W,
    NONFLAT_POLY_W3,
    NONFLAT_W,
    NONFLAT_W5,
    dual_coframe_oracle,
    lax_commutes,
    omega_wedge_d_omega,
    random_polynomial_w,
    sample_point,
    zakharevich_oracle,
)
from oracles import (
    RICCI_NULL_NODES,
    coefficient_matrix,
    coframe_matrix,
    eq1_residuals,
    exterior_derivative,
    is_hirota_solution,
    lax_commutator_residuals,
    lax_tuple,
    null_curve_at,
    omega_at,
    poisson_pencil_components,
    ricci_null_value,
    ricci_tensor,
    schouten_components,
    schouten_residuals,
    spectral_weights,
    torsion,
    torsion_free,
    wedge3,
    weyl_connection,
    weyl_form_from_connection,
)

ZT = ZeroTester()
EXACT = ZeroTester(trials=8, tolerance=0)


class TestConstruction:
    def test_default_spectral_constants(self):
        web = make_web(2, "x0+x1+x2")
        assert web.t_params == (0, 1, 2, 3)

    def test_distinctness_enforced(self):
        with pytest.raises(WebError):
            make_web(2, "x0+x1+x2", t_params=(0, 1, 1, 3))

    def test_degenerate_presentation_rejected(self):
        web = make_web(3, "x0*x1")
        with pytest.raises(DegenerateWebError, match="dw/dx2"):
            check_nondegenerate(web, ZT)
        check_nondegenerate(make_web(3, "x0*x1 + x2 + x3"), ZT)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda k: st.lists(
                st.fractions(min_value=-20, max_value=20, max_denominator=12),
                min_size=k + 2, max_size=k + 2, unique=True,
            )
        )
    )
    def test_cyclic_coefficient_identity(self, t_params):
        # (t_i - t_j)(T - t_l) + (t_j - t_l)(T - t_i) + (t_l - t_i)(T - t_j)
        # is 0 for any t: the T terms cancel, and so do the rest, so the
        # web does not check it at run time.
        k = len(t_params) - 2
        web = make_web(k, "+".join(f"x{i}" for i in range(k + 1)), t_params=t_params)
        for (i, j, l) in web.triples():
            assert web.a(i, j, l) + web.a(j, l, i) + web.a(l, i, j) == 0


class TestOmega:
    def test_closed_form_example(self):
        # w = x0+x1+x2, t-params (0,1,2,3):
        # omega(t) = 3(t-1)(t-2) dx0 + 2t(t-2) dx1 + t(t-1) dx2
        web = make_web(2, "x0+x1+x2")
        for tv in (Fraction(5), Fraction(-1), Fraction(1, 2)):
            om = omega_at(web, tv)
            assert om.comp("x0") is rational(3 * (tv - 1) * (tv - 2))
            assert om.comp("x1") is rational(2 * tv * (tv - 2))
            assert om.comp("x2") is rational(tv * (tv - 1))

    def test_spectral_value_collapses_to_coordinate_form(self):
        web = make_web(3, NONFLAT_W[3])
        om = omega_at(web, web.t_params[1])
        assert set(om.comps) == {"x1"}

    def test_top_spectral_value_proportional_to_dw(self):
        web = make_web(2, "exp(x1+x2) + exp(x0+5*x1+2*x2)")
        om = omega_at(web, web.t_params[3])
        # all components share the constant factor prod(t3 - tj)
        c = rational(Fraction(3 * 2 * 1))
        for i in range(3):
            assert sub(om.comp(f"x{i}"), mul(c, web.dw(i))) is ZERO

    def test_separable_pencil_integrable(self):
        web = make_web(2, "x0 + x1^2/2 + x2")
        for tv in (Fraction(4), Fraction(-2)):
            om = omega_at(web, tv)
            three = wedge3(om, exterior_derivative(om))
            assert all(v is ZERO for v in three.comps.values())


def invert_rational(matrix):
    """Oracle: the Fraction-exact Gauss-Jordan inverse."""
    n = len(matrix)
    a = [row[:] for row in matrix]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        s = a[col][col]
        a[col] = [v / s for v in a[col]]
        inv[col] = [v / s for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * p for v, p in zip(a[r], a[col])]
                inv[r] = [v - f * p for v, p in zip(inv[r], inv[col])]
    return inv


def spectral_by_repeated_plus(coeffs, tval, order):
    """Oracle: the order-th t-derivative of sum_m t^m coeffs[m], one
    scaled degree added to the running field or form at a time."""
    acc = type(coeffs[0])(coeffs[0].frame, {})
    for m in range(order, len(coeffs)):
        c = Fraction(math.factorial(m), math.factorial(m - order)) * Fraction(tval) ** (m - order)
        if c:
            acc = acc.plus(coeffs[m].scaled(rational(c)))
    return acc


def spectral_factored(coeffs, tval, order):
    """Oracle: the components of the order-th t-derivative of
    sum_m t^m coeffs[m], each as (sum_m weight_m q_m) * base, where every
    degree's component in that coordinate is q_m * base for one base."""
    comps = {}
    for c in coeffs[0].frame:
        total, base = Fraction(0), None
        for m in range(order, len(coeffs)):
            e = coeffs[m].comps.get(c)
            if e is None:
                continue
            if e.kind == RAT:
                q, b = e.payload, rational(1)
            elif e.kind == MUL and e.children[0].kind == RAT:
                q, b = e.children[0].payload, mul(*e.children[1:])
            else:
                q, b = 1, e
            assert base is None or b is base, "degrees do not share one base"
            base = b
            weight = Fraction(math.factorial(m), math.factorial(m - order)) * Fraction(tval) ** (m - order)
            total += weight * q
        if total:
            comps[c] = mul(rational(total), base)
    return comps


class TestNullCurve:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_spectral_values_are_the_repeated_sum_nodes(self, k):
        # Each component is the factored node (rational) * base, and it
        # equals the repeated sum over the degrees exactly.
        ws = [random_polynomial_w(k, random.Random(k))] + ([NONFLAT_W[k]] if k in NONFLAT_W else [])
        for w in ws:
            for t_params in (None, [Fraction(3 * n * n - 7, n + 2) for n in range(k + 2)]):
                web = make_web(k, w, t_params)
                fields, forms = null_curve(web).fields, omega_coefficient_forms(web)
                for tv in (Fraction(1, 2), Fraction(k + 3), Fraction(-3, 2)):
                    for order in range(k + 1):
                        for got, coeffs in ((null_curve_at(web, tv, order), fields),
                                            (omega_at(web, tv, order), forms)):
                            want = spectral_by_repeated_plus(coeffs, tv, order)
                            assert type(got) is type(want) and got.frame == want.frame
                            factored = spectral_factored(coeffs, tv, order)
                            assert got.comps.keys() == factored.keys()
                            assert all(got.comps[c] is factored[c] for c in factored), (w, tv, order)
                            for c in set(got.comps) | set(want.comps):
                                diff = sub(got.comp(c), want.comp(c))
                                assert EXACT.verdict(diff) is Verdict.ZERO, (w, tv, order, c)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_coefficient_matrix_inverse_is_exact(self, k):
        # The coframe read from omega's coefficient forms is the elimination's inverse.
        w = " + ".join(f"x{i}" for i in range(k + 1))
        rng = random.Random(k)
        moved = [Fraction(3 * n * n - 7, n + 2) for n in range(k + 2)]
        drawn = rng.sample(sorted({Fraction(m, d) for m in range(-30, 31) for d in range(1, 8)}), k + 2)
        for t_params in (None, moved, drawn):
            web = make_web(k, w, t_params)
            r = coefficient_matrix(null_curve(web))
            assert coframe_matrix(null_curve(web)) == invert_rational(r), t_params

    @pytest.mark.parametrize("k", range(1, 9))
    def test_null_values_match_the_coefficient_matrix(self, k):
        # c_j(s) in closed form against the sum over the coefficient matrix
        w = " + ".join(f"x{i}" for i in range(k + 1))
        for t_params in (None, [Fraction(3 * n * n - 7, n + 2) for n in range(k + 2)]):
            curve = null_curve(make_web(k, w, t_params))
            r = coefficient_matrix(curve)
            for s in (Fraction(0), Fraction(k + 5), Fraction(-7, 3), Fraction(1, 2)):
                for order in (0, 1):
                    weights = spectral_weights(k + 1, s, order)
                    want = [sum(weight * r[m][j] for m, weight in weights) for j in range(k + 1)]
                    assert oracles.null_values(curve.web.t_params, s, order) == want, (t_params, s, order)

    def test_duality_table(self):
        # omega^(i)(t)(V^(j)(t)) = 0 for i+j < k and (-1)^j k! at i+j = k
        for k, w in ((2, "x0+x1+x2"), (3, NONFLAT_W[3])):
            web = make_web(k, w)
            for tv in (Fraction(k + 3), Fraction(-1, 2)):
                for i in range(k + 1):
                    for j in range(k + 1 - i):
                        val = omega_at(web, tv, order=i)(null_curve_at(web, tv, order=j))
                        want = rational((-1) ** j * math.factorial(k)) if i + j == k else ZERO
                        assert ZT.verdict(sub(val, want)) is Verdict.ZERO

    def test_span_integrability_on_solution(self):
        # [V^(i)(t), V^(j)(t)] lies in span{V^(i), ..., V^(j)} at fixed t
        web = make_web(2, NONFLAT_W[2])
        tv = Fraction(9, 2)
        fields = [null_curve_at(web, tv, order=m) for m in range(3)]
        thetas = dual_coframe_oracle(fields, web.coords, ZT)
        for i in range(3):
            for j in range(i + 1, 3):
                br = lie_bracket(fields[i], fields[j])
                for m in range(3):
                    coeff = thetas[m](br)
                    if i <= m <= j:
                        continue
                    assert ZT.verdict(coeff) is Verdict.ZERO, (i, j, m)


class TestHirotaLax:
    def test_separable_solves_exactly(self):
        web = make_web(3, "x0+x1+x2+x3")
        assert all(e is ZERO for e in hirota_residuals(web).values())

    def test_product_is_not_a_solution(self):
        web = make_web(2, "x0*x1*x2 + x0 + x1 + x2")
        assert any(v is Verdict.NONZERO for v in hirota_verdicts(web, ZT).values())

    def test_nonflat_exponential_solutions(self):
        for k, w in NONFLAT_W.items():
            web = make_web(k, w)
            assert is_hirota_solution(web, ZT), (k, w)
            assert lax_commutes(web, ZT), (k, w)

    def test_lax_tangency_is_exact(self):
        web = make_web(3, NONFLAT_W[3])
        for tv in (Fraction(11), Fraction(-3, 4)):
            om = omega_at(web, tv)
            for L in lax_tuple(web, tv):
                assert om(L) is ZERO

    def test_equivalence_on_corpus(self, corpus):
        # identical overall verdicts for the Hirota residuals, the
        # first-order hierarchy form and the Lax commutators
        for k, w, _tag in corpus:
            web = make_web(k, w)
            h = is_hirota_solution(web, ZT)
            e = all(ZT.verdict(r) is Verdict.ZERO for r in eq1_residuals(web).values())
            l = lax_commutes(web, ZT)
            assert h == e == l, (k, w)

    def test_commutator_and_hierarchy_fail_together_pointwise(self):
        # [L_i, L_j]^{x0} = (t - t_0)(t_{k+1} - t) / (dw/dx0)^2 times the
        # hierarchy residual, so its t^2 coefficient is -residual/(dw/dx0)^2:
        # the two tests fail at exactly the same points
        web = make_web(2, "x0*x1*x2 + x0 + x1 + x2")
        lr = lax_commutator_residuals(web)
        e1, = eq1_residuals(web).values()
        quad = lr[(1, 2, "x0", 2)]
        rel = add(mul(pow_int(web.dw(0), 2), quad), e1)
        assert ZT.verdict(rel) is Verdict.ZERO


def one_verdict_t_params(k: int, kind: str) -> list[Fraction] | None:
    """Spectral constants for the identity tests: the default, drawn
    rationals, or t_0 = -T with T = t_{k+1}, where the t^1 coefficient of
    -(t - t_0)(t - T) vanishes instead of the t^0 one."""
    if kind == "default":
        return None
    if kind == "drawn":
        return random.Random(k + 40).sample(sorted({Fraction(m, d) for m in range(-30, 31) for d in range(1, 8)}), k + 2)
    return [Fraction(-(k + 1))] + [Fraction(n) for n in range(1, k + 2)]


def one_verdict_problems(corpus) -> list[tuple[dict, str]]:
    """(problem, kind of constants) for every corpus web and the generic
    web "w" at k = 1..8, at each kind of ``one_verdict_t_params``."""
    webs_ = [(k, w) for k, w, _tag in corpus] + [(k, "w") for k in range(1, 9)]
    out = []
    for kind in ("default", "drawn", "t0=-T"):
        for k, w in webs_:
            raw = {"kind": "web", "k": k, "w": w}
            t = one_verdict_t_params(k, kind)
            if t is not None:
                raw["t_params"] = [str(x) for x in t]
            out.append((raw, kind))
    return out


def printed_residuals(report: dict, ctx) -> dict[str, object]:
    """Each residual expression of a report entry, parsed back with its defs."""
    defs = []
    for text in report.get("defs", []):
        defs.append(parse_expr(text, ctx, defs=defs))
    return {r["name"]: parse_expr(r["expression"], ctx, defs=defs) for r in report["residuals"]}


def oracle_names(web) -> tuple[dict, dict]:
    """The hierarchy and Lax residuals built from their definitions
    (tests/oracles.py), keyed by their report names."""
    hierarchy = {f"hierarchy[{i},{j}]": e for (i, j), e in eq1_residuals(web).items()}
    lax = {f"lax[{i},{j};{c};t^{d}]": e for (i, j, c, d), e in lax_commutator_residuals(web).items()}
    return hierarchy, lax


class TestPrintedEntries:
    """Reports print hierarchy[i,j] and lax[i,j;x0;t^d] as multiples of
    hirota[0,i,j]; here they are parsed back and checked against the
    residuals built from their definitions."""

    def test_printed_entries_are_the_oracle_residuals(self, corpus):
        for raw, _kind in one_verdict_problems(corpus):
            report = analyze_web(ProblemSpec.from_dict(raw))
            web = make_web(raw["k"], raw["w"], raw.get("t_params"))
            printed = printed_residuals(report, web.context)
            hierarchy, lax = oracle_names(web)
            listed = {name for name in printed if name.startswith(("hierarchy[", "lax["))}
            for name in listed | hierarchy.keys() | lax.keys():
                want = hierarchy.get(name, lax.get(name, ZERO))
                diff = sub(printed.get(name, ZERO), want)
                assert diff is ZERO or EXACT.verdict(diff) is Verdict.ZERO, (raw, name)

    def test_report_names_are_the_oracle_keys(self, corpus):
        # At t_0 = -T the t^1 factor t_0 + T is 0: the bracket's t^1
        # coefficient, built by Lie brackets, is a sum that vanishes but is
        # not the constant 0, and the report does not list it.
        separable = {w for k, w, tag in corpus if tag == "separable"}
        dropped = set()
        for raw, kind in one_verdict_problems(corpus):
            report = analyze_web(ProblemSpec.from_dict(raw))
            web = make_web(raw["k"], raw["w"], raw.get("t_params"))
            hierarchy, lax = oracle_names(web)
            hirota = {f"hirota[{i},{j},{l}]" for i, j, l in web.triples()}
            names = [r["name"] for r in report["residuals"]]
            kept = {name for name in lax if not (kind == "t0=-T" and name.endswith(";t^1]"))}
            assert set(names) == hirota | hierarchy.keys() | kept and len(names) == len(set(names)), raw
            if raw["w"] in separable:
                assert not lax and not any(name.startswith("lax[") for name in names), raw
            if kind == "t0=-T":
                dropped |= {(raw["k"], raw["w"], name) for name in lax.keys() - kept}
        generic = {(k, name) for k, w, name in dropped if w == "w"}
        assert generic == {(k, f"lax[{i},{j};x0;t^1]") for k in range(2, 9)
                           for i in range(1, k + 1) for j in range(i + 1, k + 1)}


class TestOneVerdict:
    """The identities that let a report read the hierarchy, Lax and the
    triples without 0 from the Hirota triples H_0ij through 0, with
    T = t_{k+1}:

        hierarchy[i,j] = H_0ij / ((T - t_i)(T - t_j)),
        [L_i(t), L_j(t)] = -(t - t_0)(t - T) H_0ij / ((dw/dx0)^2 (T - t_i)(T - t_j)) d/dx0,
        w_0 (t_0 - T) H_ijl = (t_l - T) w_l H_0ij - (t_j - T) w_j H_0il + (t_i - T) w_i H_0jl.

    They are checked on the generic web "w", whose derivatives are
    independent symbols, so they hold for every w.
    """

    @pytest.mark.parametrize("kind", ["default", "drawn", "t0=-T"])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_identities_on_the_generic_web(self, k, kind):
        web = make_web(k, "w", one_verdict_t_params(k, kind))
        t = web.t_params
        top = t[-1]
        h = hirota_residuals(web)
        hierarchy, lax = eq1_residuals(web), lax_commutator_residuals(web)
        pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
        factor = {0: -t[0] * top, 1: t[0] + top, 2: Fraction(-1)}
        assert sorted(hierarchy) == pairs
        assert set(lax) <= {(i, j, "x0", d) for i, j in pairs for d in factor}
        assert kind != "t0=-T" or factor[1] == 0
        for i, j in pairs:
            h0 = h[(0, i, j)]
            assert EXACT.verdict(h0) is Verdict.NONZERO
            scale = 1 / ((top - t[i]) * (top - t[j]))
            assert EXACT.verdict(sub(hierarchy[(i, j)], mul(rational(scale), h0))) is Verdict.ZERO, (i, j)
            for d, c in factor.items():
                want = mul(rational(c * scale), h0, pow_int(web.dw(0), -2))
                assert EXACT.verdict(sub(lax.get((i, j, "x0", d), ZERO), want)) is Verdict.ZERO, (i, j, d)
        for (i, j, l), e in h.items():
            if i:
                combination = add_iter(
                    [mul(rational(t[l] - top), web.dw(l), h[(0, i, j)]),
                     mul(rational(t[i] - top), web.dw(i), h[(0, j, l)])],
                    [mul(rational(t[j] - top), web.dw(j), h[(0, i, l)])],
                )
                assert EXACT.verdict(sub(mul(rational(t[0] - top), web.dw(0), e), combination)) is Verdict.ZERO, \
                    (i, j, l)

    def test_reports_print_one_verdict(self, corpus, corpus_reports):
        # Each hierarchy and Lax entry carries its hirota[0,i,j] verdict, and
        # no Lax entry is listed where its t-degree's factor vanishes; the
        # four keys agree.
        problems = [{"kind": "web", "k": k, "w": w} for k, w, _tag in corpus]
        extra = [{"kind": "web", "k": k, "w": "w"} for k in range(1, 9)]
        extra.append({"kind": "web", "k": 2, "w": "x0 + x1^2/2 + x2", "t_params": ["-2", "0", "1", "2"]})
        extra.append({"kind": "web", "k": 3, "w": "w", "t_params": ["-4", "1", "2", "3", "4"]})
        reports = corpus_reports + [analyze_web(ProblemSpec.from_dict(raw)) for raw in extra]
        for raw, rep in zip(problems + extra, reports):
            verdicts = rep["verdicts"]
            assert verdicts["hirota"] is verdicts["hierarchy"] is verdicts["lax"] is verdicts["zakharevich"], raw
            t = [Fraction(x) for x in rep["problem"]["t_params"]]
            factor = (-t[0] * t[-1], t[0] + t[-1], -1)
            by_name = {r["name"]: r["verdict"] for r in rep["residuals"]}
            assert verdicts["hirota"] is all(v == "zero" for v in by_name.values()), raw
            for name, got in by_name.items():
                read = re.fullmatch(r"(?:hierarchy|lax)\[(\d+),(\d+)(?:;x0;t\^(\d))?\]", name)
                if read is not None:
                    i, j, d = read.groups()
                    assert d is None or factor[int(d)], (raw, name)
                    assert got == by_name[f"hirota[0,{i},{j}]"], (raw, name)
                else:
                    assert name.startswith("hirota["), name


# Flat and nonflat webs at k = 3..8: the nonflat exponential corpus and
# benchmark webs, their k = 6..8 members and a polynomial k = 3 image.
FLATNESS_WEBS = (
    [pytest.param(3, "x0+x1+x2+x3", True, id="3-linear"),
     pytest.param(3, "2*x0 + x1 + x2^2/2 + x3", True, id="3-square"),
     pytest.param(3, NONFLAT_W[3], False, id="3-exp"),
     pytest.param(3, NONFLAT_POLY_W3, False, id="3-poly"),
     pytest.param(4, NONFLAT_W[4], False, id="4-exp"),
     pytest.param(5, NONFLAT_W5, False, id="5-exp")]
    + [pytest.param(k, w, False, id=f"{k}-exp") for k, w in NONFLAT_HIGH_W.items()]
)


class TestCanonicalConnection:
    def test_requires_solution(self, monkeypatch):
        # The connection is that of a Hirota solution: a report decides the
        # Hirota system first, and builds the connection (for flatness too)
        # only on a solution.
        built = []
        real = webs._diagonal_connection
        monkeypatch.setattr(webs, "_diagonal_connection", lambda web: built.append(web.w) or real(web))
        for w, solves in (("x0*x1*x2 + x0 + x1 + x2 + x3", False), (NONFLAT_W[3], True)):
            rep = analyze_web(ProblemSpec.from_dict({"kind": "web", "k": 3, "w": w}))
            assert rep["verdicts"]["hirota"] is solves, w
            assert ("connection" in rep["derived"]) is ("flat" in rep["verdicts"]) is solves, w
        assert len(built) == 1

    def test_k1_explicit_formulas(self):
        web = make_web(1, "x0 + x1 + x0*x1")
        conn = canonical_connection(web)
        g00 = conn.christoffel("x0", "x0", "x0")
        g11 = conn.christoffel("x1", "x1", "x1")
        want00 = sub(div(web.dw2(0, 0), web.dw(0)), div(web.dw2(0, 1), web.dw(1)))
        want11 = sub(div(web.dw2(1, 1), web.dw(1)), div(web.dw2(0, 1), web.dw(0)))
        assert ZT.verdict(sub(g00, want00)) is Verdict.ZERO
        assert ZT.verdict(sub(g11, want11)) is Verdict.ZERO
        assert conn.christoffel("x0", "x1", "x1") is ZERO
        assert conn.christoffel("x1", "x0", "x0") is ZERO

    @pytest.mark.parametrize("w, t_params", [
        ("x0 + x1 + x0*x1", None),
        ("x0 + x1^2/2", None),
        ("x0 + x1", None),
        ("w", None),
        ("exp(x0 + 2*x1) + x1", ["1/2", "-3", "7"]),
        ("sin(x0*x1) + x0", None),
        ("x0^2*x1 + x1^3", ["-2", "1/3", "5"]),
    ])
    def test_k1_alpha_is_the_closed_form(self, w, t_params):
        # At k = 1 the diagonal tables give alpha = (-w01/w1, -w01/w0), the
        # very nodes of the closed form, for any spectral constants.
        web = make_web(1, w, t_params)
        alpha = canonical_connection(web).alpha
        assert alpha.comp("x0") is neg(div(web.dw2(0, 1), web.dw(1)))
        assert alpha.comp("x1") is neg(div(web.dw2(0, 1), web.dw(0)))

    def test_k1_preserves_null_directions(self):
        # nabla_Y V(t) proportional to V(t) for each t
        web = make_web(1, "x0 + x1 + x0*x1")
        conn = canonical_connection(web)
        for tv in (Fraction(3), Fraction(-1, 2)):
            v = null_curve_at(web, tv)
            for a in web.coords:
                comps = {}
                for c in web.coords:
                    terms = [differentiate(v.comp(c), a)]
                    for b in web.coords:
                        terms.append(mul(v.comp(b), conn.christoffel(a, b, c)))
                    comps[c] = add_iter(terms)
                nav = VectorField(web.coords, comps)
                # proportionality: nav ^ v = 0 componentwise
                cross = sub(mul(nav.comp("x0"), v.comp("x1")), mul(nav.comp("x1"), v.comp("x0")))
                assert ZT.verdict(cross) is Verdict.ZERO

    def test_flat_web_has_zero_alpha(self):
        web = make_web(3, "x0+x1+x2+x3")
        conn = canonical_connection(web)
        assert conn.alpha.comps == {}
        assert all(conn.christoffel(a, b, b) is ZERO for a in web.coords for b in web.coords)

    def test_torsion_normalisation_of_alpha(self):
        # the defining property: T(V(t), V'(t)) is proportional to V(t)
        web = make_web(3, NONFLAT_W[3])
        conn = canonical_connection(web)
        tor = torsion(conn)
        for tv in (Fraction(6), Fraction(-1, 3)):
            v, vp = null_curve_at(web, tv), null_curve_at(web, tv, order=1)
            tcomp = {c: ZERO for c in web.coords}
            for (a, b), tf in tor.items():
                factor = sub(mul(v.comp(a), vp.comp(b)), mul(v.comp(b), vp.comp(a)))
                for c, e in tf.comps.items():
                    tcomp[c] = add(tcomp[c], mul(factor, e))
            tvf = VectorField(web.coords, tcomp)
            # T(V, V') ^ V = 0: all 2x2 minors with V vanish
            for c1 in web.coords:
                for c2 in web.coords:
                    if c1 < c2:
                        minor = sub(mul(tvf.comp(c1), v.comp(c2)), mul(tvf.comp(c2), v.comp(c1)))
                        assert ZT.verdict(minor) is Verdict.ZERO

    @pytest.mark.parametrize("k, w, expect", FLATNESS_WEBS)
    def test_flatness_matches_separability_criterion(self, monkeypatch, k, w, expect):
        # d/dx_i (dw/dx_j / dw/dx_l) = 0 for i outside {j, l}
        web = make_web(k, w)
        assert is_hirota_solution(web, ZT)
        sep = all(ZT.verdict(differentiate(div(web.dw(j), web.dw(l)), f"x{i}")) is Verdict.ZERO
                  for i, j, l in permutations(range(k + 1), 3))
        assert sep is expect
        # The verdict zero-tests the nonzero torsion components of the
        # oracle, the same nodes in the same order, up to the first
        # nonzero one, and agrees with the oracle's full torsion verdict.
        tester = ZeroTester()
        conn = canonical_connection(web)
        real, seen = ZeroTester.verdict, []
        monkeypatch.setattr(ZeroTester, "verdict", lambda self, e: seen.append(e) or real(self, e))
        assert flatness_verdict(web, tester) is expect
        monkeypatch.undo()
        want = []
        for e in (e for v in torsion(conn).values() for e in v.comps.values()):
            want.append(e)
            if tester.verdict(e) is not Verdict.ZERO:
                break
        assert len(seen) == len(want) and all(a is b for a, b in zip(seen, want))
        assert torsion_free(conn, ZeroTester()) is expect

    def test_flatness_requires_k_above_two(self):
        with pytest.raises(WebError):
            flatness_verdict(make_web(2, "x0+x1+x2"), ZT)

    def test_connection_family_has_no_vprime_part(self):
        # for k > 2 the canonical connection preserves each null
        # direction on the nose: nabla_Y V(t) = alpha(Y) V(t)
        web = make_web(3, NONFLAT_W[3])
        conn = canonical_connection(web)
        for tv in (Fraction(5), Fraction(-1, 2)):
            v = null_curve_at(web, tv)
            for a in web.coords:
                comps = {}
                for c in web.coords:
                    terms = [differentiate(v.comp(c), a)]
                    for b in web.coords:
                        vb = v.comp(b)
                        if vb is not ZERO:
                            terms.append(mul(vb, conn.christoffel(a, b, c)))
                    comps[c] = add_iter(terms)
                nav = VectorField(web.coords, comps)
                residual = nav.plus(v.scaled(neg(conn.alpha.comp(a))))
                assert all(ZT.verdict(e) is Verdict.ZERO for e in residual.comps.values()), (tv, a)

    def test_h_interpolation_consistency_is_checked(self):
        # the bracket function h(t) of a genuine web obeys its degree
        # bound at either node family (the check row of the oracle's
        # tables), so the tables interpolate it at k + 1 nodes
        web = make_web(4, "x0+x1+x2+x3+x4 + 0*x0")
        assert is_hirota_solution(web, ZT)
        assert [degree_check(web, start) for start in (0, 101)] == [ZERO, ZERO]
        assert canonical_connection(web).alpha.comps == {}


def degree_check(web, start):
    """The check row of ``oracles.diagonal_tables`` over the b_jl: the
    interpolant of h through the k + 1 nodes from ``start``, at the next
    node, minus h there.  It vanishes when h has degree at most k."""
    check, _ = oracles.diagonal_tables(web.t_params, start)
    basis = [div(web.dw2(j, l), mul(web.dw(j), web.dw(l))) for j, l in combinations(range(web.k + 1), 2)]
    return add_iter(mul(rational(c), b) for c, b in zip(check, basis) if c)


def separable_w(k):
    return " + ".join(f"x{i}^2/2" if i % 2 else f"x{i}" for i in range(k + 1))


def bracket_h_oracle(web, s):
    """Oracle: h(s) with [V(s), V'(s)] = h(s) V'(s) mod V(s), from the Lie
    bracket of the repeated-sum values of V, read off through
    omega^(k-1)(s), which is -k! on V'(s) and 0 on V(s)."""
    fields, forms = null_curve(web).fields, omega_coefficient_forms(web)
    bracket = lie_bracket(spectral_by_repeated_plus(fields, s, 0), spectral_by_repeated_plus(fields, s, 1))
    om = spectral_by_repeated_plus(forms, s, web.k - 1)
    return mul(rational(Fraction(-1, math.factorial(web.k))), om(bracket))


def alpha_oracle(web, nodes):
    """Oracle: alpha from the oracle h at k+1 nodes, solving alpha(V(s)) =
    h(s) with V(s)^j = (t_j - s)^k / (den_j dw/dx_j)."""
    k, t = web.k, web.t_params
    den = [(t[k + 1] - t[j]) * math.prod(t[j] - t[l] for l in range(k + 1) if l != j) for j in range(k + 1)]
    dinv = invert_rational([[(t[j] - s) ** k / den[j] for j in range(k + 1)] for s in nodes])
    hs = [bracket_h_oracle(web, s) for s in nodes]
    return {f"x{j}": mul(web.dw(j), add_iter(mul(rational(dinv[j][n]), hs[n]) for n in range(k + 1)))
            for j in range(k + 1)}


SHIFTED_T3 = (0, 1, 2, 3, 5)
RATIONAL_T5 = [Fraction(3 * n * n - 7, n + 2) for n in range(7)]
# A nonflat k = 3 web for SHIFTED_T3: a~_i (m_i - 1) = 6 for a~ = (1/4, 2/3, 3/2).
NONFLAT_SHIFTED_W3 = "exp(x1+x2+x3) + exp(x0+25*x1+10*x2+5*x3)"
CONNECTION_CASES = (
    [(1, separable_w(1), None)]
    + [(k, separable_w(k), None) for k in range(3, 9)]
    + [(k, NONFLAT_W[k], None) for k in (3, 4)]
    + [(5, NONFLAT_W5, None)]
    + [(5, separable_w(5), RATIONAL_T5)]
    + [(3, NONFLAT_SHIFTED_W3, SHIFTED_T3)]
)


# SHA-256 of the rendered report entry (seed 0): the golden batch has no
# web with k >= 3, so these pin the printed diagonal connections.
REPORT_PINS = (
    (3, NONFLAT_W[3], None, "1c7ffd535dea958edce6869b11bdaa1cddc464ef6a7dae4d8cdccb1971a90679"),
    (4, NONFLAT_W[4], None, "ce3c8b0b6b5acdbd5e99d345e0e1a5172af2027e4f8f1b1a0f96ddc3d71627eb"),
    (5, NONFLAT_W5, None, "02e9f10897b1fc94ff199faebee971023c4396226a6ef65778e885f80c45f8e1"),
    (5, separable_w(5), None, "eab03cd588ce1d76dec0d1d8c9f061340103c38b5b44e3a451cd88ae033418ca"),
    (8, separable_w(8), None, "72a048e5e848283b1408bf6bc92536dd4d154c57a392e6fb15a8f28b5705abc8"),
    (3, NONFLAT_SHIFTED_W3, SHIFTED_T3, "6c2955ff0b6edc8f626b91d262b9b3cf2abd6cbae06bab07e805a42bc12a96b5"),
    (5, separable_w(5), RATIONAL_T5, "d31d94eecb9b8dcc02b38f18b8cc1d8c2597489698abc7cb142f189f9c47579d"),
)


@pytest.mark.parametrize("k, w, t_params, digest", REPORT_PINS)
def test_diagonal_connection_report_bytes(k, w, t_params, digest):
    raw = {"kind": "web", "k": k, "w": w}
    if t_params is not None:
        raw["t_params"] = [str(Fraction(t)) for t in t_params]
    text = dumps_report(analyze_web(ProblemSpec.from_dict(raw)))
    assert "alpha" in text
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The same pins for webs read in the null frame's dual at non-default
# spectral constants: the k = 2 Weyl connection and the k = 3 Bryant forms.
T2 = ("-7/2", "1/3", "2", "9/5")
NULL_DUAL_PINS = (
    (2, "x0+x1+x2", T2, "ae70cdb20d7baf84f031acd70e060c7602c59ba104997fbf6236fdcceb459cf2"),
    # a Hirota solution at T2: 2 a(0,1,2) + a(1,2,0) + (219/242) a(2,0,1) = 0.
    # Its weyl_form is printed as -2 (alpha_tilde + f omega_1), no longer
    # read from the Christoffel table through nabla g: the pin was
    # eee0f506... (8,336 bytes) before; parsed back with their defs, every
    # other entry is the same node as then.
    (2, "exp(x1+x2) + exp(x0+2*x1+219/242*x2)", T2,
     "f065590147ca5d1de42cc52268e4d017fd42bbf831214b609e6da1fd5f24208f"),
    (3, "x0+x1+x2+x3", ("-7/2", "-5/3", "5/4", "29/5", "73/6"),
     "487e60e5c2ca2a1b6f34a6bd281a4fa41194ec24ad68c2b39edb484e110c4bfa"),
)


@pytest.mark.parametrize("k, w, t_params, digest", NULL_DUAL_PINS)
def test_null_dual_report_bytes(k, w, t_params, digest):
    report = analyze_web(ProblemSpec.from_dict({"kind": "web", "k": k, "w": w, "t_params": list(t_params)}))
    assert report["verdicts"]["hirota"] and ("bryant" in report["derived"]) == (k == 3)
    assert hashlib.sha256(dumps_report(report).encode()).hexdigest() == digest


def test_null_dual_pin_differs_from_the_sampled_one_only_in_ricci_null_max():
    # The exp web's entry printed the float sample 2.5096591471651664e-13
    # while Ric(V, V) was sampled; with that one line put back, the text is
    # the one the sampling report printed, byte for byte, except for the
    # hierarchy and Lax entries, printed here as multiples of hirota[0,1,2]
    # (the pin was a2d99e47... while they were built from their definitions),
    # and for the weyl_form with its defs, printed as -2 (alpha_tilde +
    # f omega_1) (the pin was 51ad9ac7... while it was read from nabla g).
    report = analyze_web(ProblemSpec.from_dict({
        "kind": "web", "k": 2, "w": "exp(x1+x2) + exp(x0+2*x1+219/242*x2)", "t_params": list(T2)}))
    text = dumps_report(report)
    line = '    "ricci_null_max": 0.0\n'
    assert text.count(line) == 1
    sampled = text.replace(line, '    "ricci_null_max": 2.5096591471651664e-13\n')
    assert hashlib.sha256(sampled.encode()).hexdigest() == \
        "f32c9394328606d1e6e3a1a899286681499d6ceacc142200824390eaa33f5b24"


def table_h(web, s):
    """h(s) from the rational coefficients of ``spectral._bracket_h``, over
    the basis b_jl = w_jl / (w_j w_l) built here from its definition."""
    basis = [div(web.dw2(j, l), mul(web.dw(j), web.dw(l)))
             for j in range(web.k + 1) for l in range(j + 1, web.k + 1)]
    scales, (row,) = spectral._bracket_h(web.t_params, [s])
    coeffs = [h * x for h, x in zip(scales, row)]
    assert len(coeffs) == len(basis)
    return add_iter(mul(rational(c), b) for c, b in zip(coeffs, basis))


@pytest.fixture
def fresh_tables():
    """An empty table cache before and after the test, so that tables
    built from a patched h never reach another test."""
    spectral._diagonal_tables.cache_clear()
    yield
    spectral._diagonal_tables.cache_clear()


class TestFrameBrackets:
    @pytest.mark.parametrize("k, w, t_params", CONNECTION_CASES)
    def test_h_and_alpha_match_the_bracket_oracle(self, k, w, t_params):
        web = make_web(k, w, t_params)
        assert is_hirota_solution(web, EXACT)
        nodes = spectral._spectral_nodes(web.t_params, k + 2)
        for s in nodes:
            assert EXACT.verdict(sub(table_h(web, s), bracket_h_oracle(web, s))) is Verdict.ZERO, s
        alpha = webs._diagonal_connection(web).alpha
        want = alpha_oracle(web, nodes[: k + 1])
        for c in web.coords:
            assert EXACT.verdict(sub(alpha.comp(c), want[c])) is Verdict.ZERO, c

    @pytest.mark.parametrize("k", range(3, 9))
    def test_h_matches_the_bracket_oracle_off_solutions(self, k):
        # h(s) is defined for any w; these cross terms break the Hirota
        # system, and every b_jl with w_jl != 0 enters.
        web = make_web(k, random_polynomial_w(k, random.Random(k)))
        for s in (Fraction(-1, 2), Fraction(k + 5), Fraction(7, 3)):
            want = bracket_h_oracle(web, s)
            assert want is not ZERO
            assert EXACT.verdict(sub(table_h(web, s), want)) is Verdict.ZERO, s

    def test_mixed_partials_are_one_node(self, corpus):
        for k, w, _ in corpus:
            web = make_web(k, w)
            for j in range(k + 1):
                for l in range(j + 1, k + 1):
                    assert web.dw2(j, l) is web.dw2(l, j), (w, j, l)

    @pytest.mark.parametrize("k", (3, 4, 5))
    def test_nonflat_alpha_strings_are_small(self, k):
        web = make_web(k, NONFLAT_W[k] if k in NONFLAT_W else NONFLAT_W5)
        alpha = canonical_connection(web).alpha
        assert len(alpha.comps) == k + 1
        assert all(len(to_string(e)) <= 5000 for e in alpha.comps.values())

    def test_degree_check_row_repeats_the_hirota_verdict(self, corpus):
        # On a web h(t) has degree at most k, which the interpolation of
        # the diagonal connection rests on, so the connection checks no
        # degree bound.  The oracle's check row, at both node families,
        # vanishes exactly on every Hirota solution and on no other web.
        # NONFLAT_HIGH_W[8] has exponents beyond parser.MAX_EXPONENT, so it
        # is sampled in floats, where EXACT's tolerance 0 fails.
        cases = [(k, w, tag != "random", EXACT) for k, w, tag in corpus]
        cases += [(k, w, True, EXACT if k < 8 else ZT) for k, w in NONFLAT_HIGH_W.items()]
        cases.append((3, NONFLAT_POLY_W3, True, EXACT))
        for k, w, solves, tester in cases:
            web = make_web(k, w)
            assert is_hirota_solution(web, tester) is solves, w
            want = Verdict.ZERO if solves else Verdict.NONZERO
            for start in (0, 101):
                assert tester.verdict(degree_check(web, start)) is want, (w, start)

    def test_tables_are_built_once_per_constants(self, monkeypatch, fresh_tables):
        real_h = spectral._bracket_h
        seen = []

        def counting(t, nodes):
            seen.extend((t, s) for s in nodes)
            return real_h(t, nodes)

        monkeypatch.setattr(spectral, "_bracket_h", counting)
        web = make_web(3, NONFLAT_W[3])
        canonical_connection(web)
        assert len(seen) == web.k + 1
        # another web with the same spectral constants builds no table
        canonical_connection(make_web(3, "x0 + x1^2/2 + x2 + x3"))
        assert len(seen) == web.k + 1
        # other spectral constants build one
        canonical_connection(make_web(3, NONFLAT_SHIFTED_W3, SHIFTED_T3))
        assert len(seen) == 2 * (web.k + 1)
        assert spectral._diagonal_tables(web.t_params) is spectral._diagonal_tables(web.t_params)
        assert len(seen) == 2 * (web.k + 1)


class TestWeylStructure:
    def test_f_is_permutation_invariant_on_solutions(self):
        # the defining formula of the scalar f uses the index pair (0,1)
        # and (1,2); on a Hirota solution the (1,2)/(2,0) version agrees
        web = make_web(2, NONFLAT_W[2])
        t = web.t_params
        f01 = canonical_connection(web).f
        lead = Fraction(-1, 4) / ((t[3] - t[2]) * (t[1] - t[0]))
        f12 = mul(rational(lead), sub(
            div(web.dw2(1, 2), mul(web.dw(1), web.dw(2))),
            div(web.dw2(2, 0), mul(web.dw(2), web.dw(0)))))
        assert ZT.verdict(sub(f01, f12)) is Verdict.ZERO

    def test_weyl_connection_separable(self):
        web = make_web(2, "x0+x1+x2")
        assert ZT.verdict(canonical_connection(web).f) is Verdict.ZERO
        table = weyl_connection(web)
        assert torsion_free(table, ZT)
        res = oracles.weyl_compatibility_residuals(table, zero=ZT)
        assert all(v is Verdict.ZERO for _, v in res.values())

    def test_weyl_connection_nonflat(self):
        web = make_web(2, NONFLAT_W[2])
        assert ZT.verdict(canonical_connection(web).f) is Verdict.NONZERO
        table = weyl_connection(web)
        assert torsion_free(table, ZT)
        res = oracles.weyl_compatibility_residuals(table, zero=ZT)
        assert all(v is Verdict.ZERO for _, v in res.values())

    def test_metric_annihilates_null_directions(self):
        web = make_web(2, NONFLAT_W[2])
        g = conformal_metric(web)
        for tv in (Fraction(4), Fraction(9, 2), Fraction(-1), Fraction(6), Fraction(-5, 3)):
            v = null_curve_at(web, tv)
            terms = []
            for (c, d), gv in g.items():
                w = rational(1 if c == d else 2)
                terms.append(mul(w, gv, v.comp(c), v.comp(d)))
            assert ZT.verdict(add_iter(terms)) is Verdict.ZERO

    def test_weyl_form_matches_printed_formula(self):
        # On a Hirota solution phi_i = sum_{j != i} w_ij / w_j, free of the
        # spectral constants; off solutions it is not (the runtime formula
        # is checked there against the Christoffel table below).
        for w, t_params in ((NONFLAT_W[2], None), ("exp(x1+x2) + exp(x0+10*x1+2*x2)", (0, 1, 3, 4)),
                            ("x1*x2 + x0*x1^5*x2^2", None)):
            web = make_web(2, w, t_params)
            assert is_hirota_solution(web, EXACT)
            phi = weyl_form(canonical_connection(web))
            for i in range(3):
                want = add_iter(div(web.dw2(i, j), web.dw(j)) for j in range(3) if j != i)
                assert EXACT.verdict(sub(phi.comp(f"x{i}"), want)) is Verdict.ZERO, (w, i)

    @pytest.mark.parametrize("w", ["x0+x1+x2+2*x0*x1", "exp(x0*x1)+x2", "w"])
    def test_weyl_form_is_the_table_form_off_solutions(self, w):
        # phi = -2 (alpha_tilde + f omega_1) holds for every w, not only on
        # webs: nabla g is read from the Christoffel table of the same
        # forms.  ZT decides exactly on the rational and opaque webs;
        # exp(x0*x1) takes the float path, where EXACT's tolerance 0 fails.
        web = make_web(2, w)
        assert not is_hirota_solution(web, ZT)
        phi = weyl_form(webs._weyl_connection(web))
        want = weyl_form_from_connection(weyl_connection(web))
        assert all(ZT.verdict(sub(phi.comp(c), want.comp(c))) is Verdict.ZERO for c in web.coords), w

    def test_printed_weyl_form_is_the_table_form(self, corpus):
        # Every k = 2 corpus web: the weyl_form a report prints, parsed back
        # with its defs, against the one read from the Christoffel table;
        # on non-solutions, which print no connection, the runtime formula.
        ctx = web_context(2)
        printed = 0
        for k, w, _tag in corpus:
            if k != 2:
                continue
            web = make_web(2, w)
            rep = analyze_web(ProblemSpec.from_dict({"kind": "web", "k": 2, "w": w}))
            if rep["verdicts"]["hirota"]:
                defs = []
                for text in rep.get("defs", []):
                    defs.append(parse_expr(text, ctx, defs=defs))
                comps = rep["derived"]["connection"]["weyl_form"]
                phi = {c: parse_expr(text, ctx, defs=defs) for c, text in comps.items()}
                printed += 1
            else:
                phi = weyl_form(webs._weyl_connection(web)).comps
            want = weyl_form_from_connection(weyl_connection(web))
            assert all(EXACT.verdict(sub(phi.get(c, ZERO), want.comp(c))) is Verdict.ZERO for c in web.coords), w
        assert printed == 3


def _numeric_christoffels(conn, env):
    coords = conn.web.coords
    out = {}
    for a in coords:
        for b in coords:
            for c in coords:
                e = conn.christoffel(a, b, c)
                out[(a, b, c)] = float(eval_numeric(e, env)) if e is not ZERO else 0.0
    return out


def _fd_ricci(conn, base_env, b, c, h=1e-5):
    """Finite-difference Ricci component: derivatives of the Christoffel
    symbols are taken by central differences, independent of the
    symbolic curvature code."""
    web = conn.web
    coords = web.coords

    def gamma_at(shift_coord, delta):
        env = dict(base_env)
        if shift_coord is not None:
            key = sym(shift_coord)
            env[key] = env.get(key, Fraction(0)) + Fraction(delta)
        fenv = {k: float(v) for k, v in env.items()}
        return _numeric_christoffels(conn, fenv)

    g0 = gamma_at(None, 0)
    dgamma = {}
    for d in coords:
        gp = gamma_at(d, h)
        gm = gamma_at(d, -h)
        for key in g0:
            dgamma[(d,) + key] = (gp[key] - gm[key]) / (2 * float(h))
    acc = 0.0
    for a in coords:
        acc += dgamma[(a, b, c, a)] - dgamma[(b, a, c, a)]
        for m in coords:
            acc += g0[(a, m, a)] * g0[(b, c, m)] - g0[(b, m, a)] * g0[(a, c, m)]
    return acc


def _separable_w(k: int, polynomial: bool) -> str:
    if polynomial:
        return " + ".join(f"x{i} + {2 + i % 7}*x{i}^{2 + i % 2}" for i in range(k + 1))
    return " + ".join(f"{1 + i % 9}*x{i}" for i in range(k + 1))


# Webs whose canonical connection is diagonal: the separable and nonflat
# k = 3, 4 webs of the seeded corpus, the two separable shapes of the
# benchmark's web-ladder at k = 1 and 5..8, and the nonflat k = 5 web.
DIAGONAL_WEBS = (
    [(k, _separable_w(k, poly)) for k in (1, 5, 6, 7, 8) for poly in (False, True)]
    + [(3, "x0+x1+x2+x3"), (3, "2*x0 + x1 + x2^2/2 + x3"), (4, "x0+x1+x2+x3+x4")]
    + [(3, NONFLAT_W[3]), (4, NONFLAT_W[4]), (5, NONFLAT_W5)]
)


class TestRicci:
    @pytest.mark.parametrize("k,w", DIAGONAL_WEBS)
    def test_diagonal_ricci_is_d_alpha(self, k, w):
        # Gamma(a, b, b) = d_a ln(dw/dx_b) + alpha_a is the only nonzero
        # symbol, so the product sums cancel, as do the second derivatives
        # of ln(dw/dx_c): Ric_bc = d_c alpha_b - d_b alpha_c.  Ric is then
        # antisymmetric and Ric(V, V) = 0, which the report relies on.
        web = make_web(k, w)
        conn = canonical_connection(web)
        assert conn.kind == "diagonal"
        alpha = conn.alpha
        ric = ricci_tensor(conn)
        assert len(ric) == (k + 1) ** 2
        for (b, c), e in ric.items():
            curl = sub(differentiate(alpha.comp(b), c), differentiate(alpha.comp(c), b))
            assert EXACT.verdict(sub(e, curl)) is Verdict.ZERO, (b, c)
            assert EXACT.verdict(add(e, ric[(c, b)])) is Verdict.ZERO, (b, c)

    def test_symbolic_matches_finite_difference(self):
        web = make_web(2, NONFLAT_W[2])
        conn = weyl_connection(web)
        ric = ricci_tensor(conn)
        rng = random.Random(17)
        env = sample_point(web, list(ric.values()), rng, scale=3)
        fenv = {k: float(v) for k, v in env.items()}
        for (b, c) in (("x0", "x0"), ("x0", "x1"), ("x2", "x1")):
            sym_val = float(eval_numeric(ric[(b, c)], fenv))
            fd_val = _fd_ricci(conn, env, b, c)
            assert abs(sym_val - fd_val) < 1e-4 * max(1.0, abs(sym_val))

    def test_flat_web_is_ricci_flat(self):
        web = make_web(3, "x0+x1+x2+x3")
        conn = canonical_connection(web)
        assert all(e is ZERO for e in ricci_tensor(conn).values())

    def test_weyl_ricci_is_null_exactly(self, corpus):
        # Veronese webs give the hyper-CR Einstein-Weyl structures, whose
        # Ricci tensor vanishes on the null cone that V(t) sweeps, so
        # Ric(V(t), V(t)) = 0 for every t on every k = 2 Hirota solution;
        # the report prints 0.0 without building Ric.  It is a polynomial
        # of degree at most 4 in t, so five nodes decide it.
        cases = [make_web(2, w) for k, w, _tag in corpus if k == 2]
        cases = [web for web in cases if is_hirota_solution(web, EXACT)]
        assert [web.w for web in cases] == [make_web(2, w).w for w in
                                            ("x0+x1+x2", "x0 + x1^2/2 + x2", NONFLAT_W[2])]
        # at non-default spectral constants: the nonflat web solves the
        # Hirota system at (0, 1, 2, 5) since a~_i (m_i - 1) = 2 for
        # a~ = (1/4, 2/3); the separable ones at the pins' T2
        cases.append(make_web(2, "exp(x1+x2) + exp(x0+9*x1+4*x2)", (0, 1, 2, 5)))
        cases += [make_web(2, w, T2) for w in ("x0 + x1^2/2 + x2", "sqrt(x0-2) + x1 + x2")]
        for web in cases:
            assert canonical_connection(web).kind == "weyl" and is_hirota_solution(web, EXACT), web.w
            conn = weyl_connection(web)
            ric = ricci_tensor(conn)
            for tv in RICCI_NULL_NODES:
                assert tv not in web.t_params
                assert EXACT.verdict(ricci_null_value(conn, ric, tv)) is Verdict.ZERO, (web.w, web.t_params, tv)

    def test_weyl_ricci_null_needs_the_hirota_system(self):
        # The same construction off solutions: Ric(V(t), V(t)) is not zero,
        # so the Hirota condition is what makes it vanish.
        for w, t_params in (("x0*x1*x2 + x0 + x1 + x2", None), ("x0*x1*x2 + x0 + x1 + x2", T2), ("w", None)):
            web = make_web(2, w, t_params)
            assert not is_hirota_solution(web, EXACT)
            conn = weyl_connection(web)
            ric = ricci_tensor(conn)
            for tv in RICCI_NULL_NODES:
                assert EXACT.verdict(ricci_null_value(conn, ric, tv)) is Verdict.NONZERO, (w, t_params, tv)

    def test_resampling_does_not_hide_bugs(self, monkeypatch):
        # only poles and overflow make a base point resample; any other
        # error is a bug and must surface, not read as "no pole-free point"
        def broken(*args, **kwargs):
            raise TypeError("injected")

        off_solution = make_web(2, "x0*x1*x2 + x0 + x1 + x2")
        monkeypatch.setattr(oracles, "eval_numeric", broken)
        with pytest.raises(TypeError, match="injected"):
            schouten_residuals(off_solution, Fraction(1, 2), point_samples=1, seed=7)

    def test_wide_box_reaches_webs_defined_away_from_the_origin(self):
        # sqrt(x0 - 2) is real only for x0 > 2, outside the first box
        # (|x| <= 2); the wider box reaches it.
        e = make_web(2, "sqrt(x0-2) + x1 + x2").dw(0)
        x0 = sym("x0")
        env = oracles.base_point_values(random.Random(3), [x0], lambda env: (env, eval_numeric(e, env)))[0]
        assert env[x0] > 2


class TestBryant:
    def test_requires_k3(self):
        with pytest.raises(WebError):
            bryant_forms(make_web(2, "x0+x1+x2"))

    def test_flat_web_all_zero(self):
        bf = bryant_forms(make_web(3, "x0+x1+x2+x3"))
        assert all(e is ZERO for e in bf.c.values())
        assert all(not b.comps for b in oracles.bryant_betas(bf))
        assert not bf.alpha.comps

    def test_structure_functions_antisymmetric(self):
        # stored for i < j only; the accessor's antisymmetry is checked
        # through the dual pairing against the brackets
        web = make_web(3, NONFLAT_W[3])
        bf = bryant_forms(web)
        nc = null_curve(web)
        br = lie_bracket(nc.fields[2], nc.fields[1])
        want = neg(bf.c[(1, 2, 0)])
        assert ZT.verdict(sub(bf.eta[0](br), want)) is Verdict.ZERO

    def test_nonflat_torsion_free_with_nonzero_beta(self):
        web = make_web(3, NONFLAT_W[3])
        bf = bryant_forms(web)
        assert any(ZT.verdict(v) is Verdict.NONZERO for b in oracles.bryant_betas(bf) for v in b.comps.values())
        tres = oracles.bryant_torsion_residuals(bf, ZT)
        assert all(v is Verdict.ZERO for _, v in tres.values())

    def test_requires_solution(self, monkeypatch):
        # The Bryant forms are those of a Hirota solution: a report decides
        # the Hirota system first, and builds them only on a solution.
        built = []
        real = webs._bryant_forms
        monkeypatch.setattr(webs, "_bryant_forms", lambda web: built.append(web.w) or real(web))
        for w, solves in (("x0*x1*x2 + x0 + x1 + x2 + x3", False), (NONFLAT_W[3], True)):
            rep = analyze_web(ProblemSpec.from_dict({"kind": "web", "k": 3, "w": w}))
            assert rep["verdicts"]["hirota"] is ("bryant" in rep["derived"]) is solves, w
        assert len(built) == 1


class TestZakharevich:
    def test_agrees_with_hirota_on_corpus(self, corpus, corpus_reports):
        for (k, w, _tag), rep in zip(corpus, corpus_reports):
            web = make_web(k, w)
            want = zakharevich_oracle(web, ZT)
            assert want == is_hirota_solution(web, ZT), (k, w)
            assert rep["verdicts"]["zakharevich"] is want, (k, w)

    def test_wedge_is_a_rational_multiple_of_the_hirota_residuals(self, corpus):
        # (omega ^ d omega)_{abc}(t)
        #     = P(t)^2 (t - t_{k+1}) / ((t - t_a)(t - t_b)(t - t_c)) H_{abc},
        # P(t) = prod_{j <= k} (t - t_j), exactly and at every node.
        cases = [make_web(k, w) for k, w, _tag in corpus]
        cases.append(make_web(3, "2*x0 + x1 + x2^2/2 + x3", t_params=(-1, 3, Fraction(1, 2), 7, 2)))
        not_a_web = make_web(3, "x0*x1*x2 + x0 + x1 + x2 + x3")
        cases.append(not_a_web)
        assert not is_hirota_solution(not_a_web, EXACT)
        for web in cases:
            k, t = web.k, web.t_params
            hr = hirota_residuals(web)
            for s in spectral._spectral_nodes(web.t_params, k + 3):
                three = omega_wedge_d_omega(web, s)
                assert set(three.comps) <= {tuple(f"x{i}" for i in key) for key in hr}
                p = math.prod(s - t[j] for j in range(k + 1))
                for (a, b, c), h in hr.items():
                    factor = p * p * (s - t[k + 1]) / ((s - t[a]) * (s - t[b]) * (s - t[c]))
                    diff = sub(three.comp(f"x{a}", f"x{b}", f"x{c}"), mul(rational(factor), h))
                    assert EXACT.verdict(diff) is Verdict.ZERO, (web.w, s, (a, b, c))


def pencil_affinity_exact(web, samples=(Fraction(1, 2), Fraction(3), Fraction(-2, 7))):
    """Oracle: Pi(t) - Pi(0) - t (Pi(1) - Pi(0)) = 0 componentwise, exactly."""
    p0 = poisson_pencil_components(web, Fraction(0))
    p1 = poisson_pencil_components(web, Fraction(1))
    keys = set(p0) | set(p1)
    for tval in samples:
        pt = poisson_pencil_components(web, tval)
        for key in keys | set(pt):
            base = p0.get(key, ZERO)
            rhs = base + mul(rational(tval), sub(p1.get(key, ZERO), base))
            if sub(pt.get(key, ZERO), rhs) is not ZERO:
                return False
    return True


def schouten_residuals_by_lookup(web, tval, point_samples, seed):
    """Reference: ``schouten_residuals`` with Pi^{ab} looked up per use,
    negating the stored (b, a) component each time."""
    coords = web.coords + tuple(f"y{i}" for i in range(1, web.k + 1))
    comp = poisson_pencil_components(web, tval)

    def pi(a, b):
        if (a, b) in comp:
            return comp[(a, b)]
        if (b, a) in comp:
            return neg(comp[(b, a)])
        return ZERO

    exprs = []
    n = len(coords)
    for ai in range(n):
        for bi in range(ai + 1, n):
            for ci in range(bi + 1, n):
                a, b, c = coords[ai], coords[bi], coords[ci]
                terms = []
                for d in web.coords:
                    for (u, v, z) in ((a, b, c), (b, c, a), (c, a, b)):
                        p = pi(u, d)
                        if p is ZERO:
                            continue
                        dd = differentiate(pi(v, z), d)
                        if dd is ZERO:
                            continue
                        terms.append(mul(p, dd))
                e = add_iter(terms)
                if e is not ZERO:
                    exprs.append(mul(rational(2), e))
    symbols = set()
    for e in exprs:
        symbols.update(free_symbols(e))
    symbols = sorted(symbols, key=lambda s: s.key)
    rng = random.Random(seed)
    out = []
    for _ in range(point_samples):
        vals = oracles.base_point_values(
            rng, symbols, lambda env: [abs(float(eval_numeric(e, env))) for e in exprs]
        )
        out.extend(vals if vals else [0.0])
    return out


SCHOUTEN_TVALS = (Fraction(1, 2), Fraction(7), Fraction(-3, 2), Fraction(13, 3), Fraction(9))


@pytest.fixture(scope="module")
def schouten_cases(corpus):
    """(web, Hirota verdict, {t: oracle components of [Pi(t), Pi(t)]}) for
    every corpus web, in corpus order, and then the nonflat k = 5 web."""
    out = []
    for k, w in [(k, w) for k, w, _tag in corpus] + [(5, NONFLAT_W5)]:
        web = make_web(k, w)
        by_t = {tv: schouten_components(web, tv) for tv in SCHOUTEN_TVALS}
        out.append((web, is_hirota_solution(web, EXACT), by_t))
    return out


class TestBiHamiltonian:
    def test_pencil_is_affine(self):
        # Affinity in t is by construction, so it holds for solutions and
        # non-solutions alike, and for any spectral constants.
        webs = [make_web(1, "x0 + x1^2/2"), make_web(1, "x0*x1 + x0 + x1")]
        webs += [make_web(k, NONFLAT_W[k]) for k in (2, 3, 4)]
        webs.append(make_web(2, "x0*x1*x2 + x0 + x1 + x2"))
        webs.append(make_web(3, NONFLAT_W[3], t_params=(Fraction(-1, 2), 2, 5, Fraction(7, 3), 11)))
        webs.append(make_web(4, "x0 + x1 + x2 + x3 + x4 + 2*x0*x3", t_params=(3, -1, 0, 4, 9, 2)))
        for web in webs:
            assert pencil_affinity_exact(web), (web.k, web.t_params)

    def test_schouten_is_the_lax_expansion(self, schouten_cases):
        # (x_a, y_i, y_j) = 2 [L_i(t), L_j(t)]^{x_a} = 2 sum_d t^d lax[i,j;x_a;t^d],
        # so the report's Lax verdict decides [Pi(t), Pi(t)] = 0 for every t
        for web, _ok, by_t in schouten_cases:
            lax = lax_commutator_residuals(web)
            for tv, comps in by_t.items():
                assert len(comps) == (web.k + 1) * web.k * (web.k - 1) // 2
                for (x, yi, yj), comp in comps.items():
                    i, j = int(yi[1:]), int(yj[1:])
                    expansion = add_iter(
                        mul(rational(2 * tv ** d), lax[(i, j, x, d)])
                        for d in range(3) if (i, j, x, d) in lax
                    )
                    diff = sub(comp, expansion)
                    assert diff is ZERO or EXACT.verdict(diff) is Verdict.ZERO, (web.w, tv, x, yi, yj)

    def test_schouten_vanishes_on_solutions(self, schouten_cases):
        solutions = [(web, by_t) for web, ok, by_t in schouten_cases if ok]
        assert len(solutions) == 9
        for web, by_t in solutions:
            for tv, comps in by_t.items():
                for key, e in comps.items():
                    assert EXACT.verdict(e) is Verdict.ZERO, (web.w, tv, key)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_schouten_matches_the_lookup_reference(self, k):
        ws = [random_polynomial_w(k, random.Random(k)), {1: "x0 + x1^2/2", 5: NONFLAT_W5, **NONFLAT_W}[k]]
        for w in ws:
            web = make_web(k, w)
            got = schouten_residuals(web, Fraction(1, 2), point_samples=2, seed=5)
            assert got == schouten_residuals_by_lookup(web, Fraction(1, 2), 2, 5), w

    def test_schouten_nonzero_off_solutions(self, schouten_cases, corpus_reports):
        off = [(web, rep, by_t) for (web, ok, by_t), rep in zip(schouten_cases, corpus_reports) if not ok]
        assert len(off) == 20
        for web, rep, by_t in off:
            assert rep["verdicts"]["lax"] is False, web.w
            assert any(
                EXACT.verdict(e) is Verdict.NONZERO for comps in by_t.values() for e in comps.values()
            ), web.w

    def test_matches_decomposable_expansion(self):
        # oracle: [Pi, Pi] = sum_{i,j} [L_i, L_j] ^ dy_i ^ dy_j, so the
        # (x_c, y_i, y_j) component equals 2 [L_i, L_j]^{x_c}
        web = make_web(2, NONFLAT_W[2])
        tv = Fraction(5, 2)
        ls = lax_tuple(web, tv)
        comp = poisson_pencil_components(web, tv)

        def pi(a, b):
            if (a, b) in comp:
                return comp[(a, b)]
            if (b, a) in comp:
                return neg(comp[(b, a)])
            return ZERO

        coords = web.coords + ("y1", "y2")
        rng = random.Random(23)
        br = lie_bracket(ls[0], ls[1])
        for c in web.coords:
            terms = []
            for d in web.coords:
                for (u, v, z) in ((c, "y1", "y2"), ("y1", "y2", c), ("y2", c, "y1")):
                    p = pi(u, d)
                    if p is ZERO:
                        continue
                    dd = differentiate(pi(v, z), d)
                    if dd is ZERO:
                        continue
                    terms.append(mul(p, dd))
            schouten_c = mul(rational(2), add_iter(terms))
            want = mul(rational(2), br.comp(c))
            assert ZT.verdict(sub(schouten_c, want)) is Verdict.ZERO, c
            assert ZT.verdict(sub(schouten_components(web, tv)[(c, "y1", "y2")], want)) is Verdict.ZERO, c
