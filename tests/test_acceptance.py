"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line when its
assertions hold.  Tolerances are pinned here: exact-rational sampling
uses trials = 8 with tolerance 0 (the exact path of the zero test),
float thresholds are written out explicitly.

Two constants asserted here deviate from their original statements; the
corrections are forced by the mathematics and are cross-verified from
independent data (see tests/test_invariants.py and the decisions notes
kept outside the package):
  * the order-2 obstruction is 4 V'(K0) + V(K0') and equals exactly
    three times the classical coordinate invariant (the minus-sign
    variant misclassifies x'' = -x'^3 and never equals the coordinate
    form);
  * the substituted order-3 identity carries the factor -(4/3), not
    -(3/4) (checked on the closed Wunschmann-only example x''' = x''^3
    and by sampling).
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from paraweb.expr import (
    ZERO,
    add,
    add_iter,
    eval_numeric,
    mul,
    neg,
    pow_int,
    rational,
    sub,
    sym,
    to_string,
)
from paraweb.invariants import (
    cartan_residuals,
    coordinate_cartan_order2,
    coordinate_cartan_order3,
    coordinate_wunschmann_order3,
    curvature_chain,
    wunschmann_residuals,
)
from paraweb.jet import OdeProblem
from paraweb.parser import parse_expr
import paraweb.report as report_mod
from paraweb.report import analyze_batch, dumps_report
from paraweb.webs import (
    bryant_forms,
    canonical_connection,
    conformal_metric,
    flatness_verdict,
    make_web,
    null_curve,
)
from paraweb.zerotest import Verdict, ZeroTester

from conftest import (
    NONFLAT_W,
    NONFLAT_W5,
    expand,
    lax_commutes,
    sample_point,
    zakharevich_oracle,
)
from oracles import (
    RICCI_NULL_NODES,
    bryant_betas,
    bryant_torsion_residuals,
    is_hirota_solution,
    null_curve_at,
    ricci_null_value,
    ricci_tensor,
    schouten_components,
    weyl_compatibility_residuals,
    weyl_connection,
)
from test_expr import CTX as EXPR_CTX, _random_expr
from test_invariants import (
    closed_forms_order2,
    closed_forms_order3,
    closed_forms_order4,
)

ZT = ZeroTester(trials=8)
DATA = Path(__file__).parent / "data"


def _passed(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} [{label}]: PASS")


def _opq(ode, **orders):
    return ode.context.opaque_symbol("F", orders)


def test_criterion_1_closed_form_reproduction():
    # orders 2, 3, 4: every curvature against its closed form
    for order, forms in ((2, closed_forms_order2), (3, closed_forms_order3),
                         (4, closed_forms_order4)):
        ode = OdeProblem.abstract(order)
        chain = curvature_chain(ode)
        for got, want in zip(chain.curvatures, forms(ode)):
            assert ZT.verdict(sub(got, want)) is Verdict.ZERO
    # general order: top curvature and V' for k up to 6
    for k in range(1, 7):
        ode = OdeProblem.abstract(k + 1)
        chain = curvature_chain(ode)
        x = ode.total_derivative
        dk1 = _opq(ode, **{f"x{k - 1}": 1})
        dk = _opq(ode, **{f"x{k}": 1})
        closed = mul(rational((-1) ** k), add_iter([
            dk1,
            neg(mul(rational(Fraction(k, 2)), x.apply(dk))),
            mul(rational(Fraction(k, 2 * (k + 1))), pow_int(dk, 2)),
        ]))
        assert ZT.verdict(sub(chain.curvatures[k - 1], closed)) is Verdict.ZERO, k
        vp = chain.fields[1]
        assert vp.comp(f"x{k - 1}") is rational(-1)
        assert ZT.verdict(sub(vp.comp(f"x{k}"),
                              mul(rational(Fraction(-k, k + 1)), dk))) is Verdict.ZERO
        assert vp.comp("t") is ZERO and len(vp.comps) == 2
    _passed(1, "closed-form curvature reproduction")


def test_criterion_2_wunschmann_identity_order3():
    ode = OdeProblem.abstract(3)
    chain = curvature_chain(ode)
    x = ode.total_derivative
    engine = add(chain.curvatures[0],
                 mul(rational(Fraction(1, 2)), x.apply(chain.curvatures[1])))
    diff = sub(engine, coordinate_wunschmann_order3(ode))
    assert expand(diff) is ZERO  # exact match
    assert ZT.verdict(diff) is Verdict.ZERO
    _passed(2, "order-3 Wunschmann identity, exact")


def test_criterion_3_cartan_identities():
    # order 2: the obstruction 4 V'(K0) + V(K0') equals 3 C exactly;
    # the subtracted variant is nonzero (sign correction, see module
    # docstring and the decisions notes)
    ode2 = OdeProblem.abstract(2)
    ch2 = curvature_chain(ode2)
    x2 = ode2.total_derivative
    v, v1 = ch2.fields[0], ch2.fields[1]
    k0 = ch2.curvatures[0]
    plus = add(mul(rational(4), v1.apply(k0)), v.apply(x2.apply(k0)))
    minus = sub(mul(rational(4), v1.apply(k0)), v.apply(x2.apply(k0)))
    c2 = coordinate_cartan_order2(ode2)
    assert ZT.verdict(sub(plus, mul(rational(3), c2))) is Verdict.ZERO
    assert ZT.verdict(sub(minus, mul(rational(3), c2))) is Verdict.NONZERO
    (res2,) = cartan_residuals(ode2, ch2)
    assert res2.expr is plus

    # order 3, no side conditions: C = -(3/2)(V'(K1) - V(K0))
    ode3 = OdeProblem.abstract(3)
    ch3 = curvature_chain(ode3)
    v, v1 = ch3.fields[0], ch3.fields[1]
    k0, k1 = ch3.curvatures
    c3 = coordinate_cartan_order3(ode3)
    claim = mul(rational(Fraction(-3, 2)), sub(v1.apply(k1), v.apply(k0)))
    assert ZT.verdict(sub(claim, c3)) is Verdict.ZERO
    assert expand(sub(claim, c3)) is ZERO

    # order 3 under the Wunschmann substitution K1' -> -2 K0:
    # 2 V'(K1) + V(K1') becomes 2(V'(K1) - V(K0)) = -(4/3) C
    substituted = mul(rational(2), sub(v1.apply(k1), v.apply(k0)))
    assert ZT.verdict(sub(substituted, mul(rational(Fraction(-4, 3)), c3))) is Verdict.ZERO
    assert ZT.verdict(sub(substituted, mul(rational(Fraction(-3, 4)), c3))) is Verdict.NONZERO
    _passed(3, "Cartan coordinate identities, orders 2 and 3")


def test_criterion_4_flat_corpus():
    for order in range(2, 8):
        ode = OdeProblem.from_rhs(order, "0")
        chain = curvature_chain(ode)
        assert all(k is ZERO for k in chain.curvatures)
        assert all(ZT.verdict(r.expr) is Verdict.ZERO for r in wunschmann_residuals(ode, chain))
        assert all(ZT.verdict(r.expr) is Verdict.ZERO for r in cartan_residuals(ode, chain))
    ode = OdeProblem.from_rhs(3, "3*x2^2/(2*x1)")
    chain = curvature_chain(ode)
    assert list(chain.curvatures) == [ZERO, ZERO]
    assert all(ZT.verdict(r.expr) is Verdict.ZERO for r in wunschmann_residuals(ode, chain))
    assert all(ZT.verdict(r.expr) is Verdict.ZERO for r in cartan_residuals(ode, chain))
    _passed(4, "flat corpus: F = 0 orders 2-7 and the hypergeodesic example")


def test_criterion_5_hirota_lax_equivalence(corpus):
    random_entries = [(k, w) for k, w, tag in corpus if tag == "random"]
    assert len(random_entries) == 20
    for k, w in random_entries:
        web = make_web(k, w)
        assert is_hirota_solution(web, ZT) == lax_commutes(web, ZT), (k, w)
    passing = []
    for k, w, tag in corpus:
        web = make_web(k, w)
        ok = is_hirota_solution(web, ZT)
        if tag == "separable":
            assert ok, (k, w)
        if ok:
            assert lax_commutes(web, ZT), (k, w)
            passing.append(web)
    assert passing
    # [Pi(t), Pi(t)] = 0 on every solution, each component decided exactly
    exact = ZeroTester(trials=8, tolerance=0)
    tvals = [Fraction(1, 2), Fraction(7), Fraction(-3, 2), Fraction(13, 3), Fraction(9)]
    for web in passing:
        for tv in tvals:
            for key, e in schouten_components(web, tv).items():
                assert e is ZERO or exact.verdict(e) is Verdict.ZERO, (web.k, to_string(web.w), tv, key)
    _passed(5, "Hirota/Lax verdict agreement and a vanishing Schouten bracket")


def _metric_value(g, v):
    terms = []
    for (c, d), gv in g.items():
        weight = rational(1 if c == d else 2)
        terms.append(mul(weight, gv, v.comp(c), v.comp(d)))
    return add_iter(terms)


def _fd_ricci_value(conn, env, vt, h=1e-5):
    """Finite-difference oracle for Ric(V, V) at a numeric point."""
    web = conn.web
    coords = web.coords

    def gammas(shift, delta):
        e = dict(env)
        if shift is not None:
            key = sym(shift)
            e[key] = e.get(key, Fraction(0)) + Fraction(delta)
        fe = {k: float(x) for k, x in e.items()}
        out = {}
        for a in coords:
            for b in coords:
                for c in coords:
                    expr = conn.christoffel(a, b, c)
                    out[(a, b, c)] = float(eval_numeric(expr, fe)) if expr is not ZERO else 0.0
        return out

    g0 = gammas(None, 0)
    dg = {}
    for d in coords:
        gp, gm = gammas(d, h), gammas(d, -h)
        for key in g0:
            dg[(d,) + key] = (gp[key] - gm[key]) / (2 * h)
    acc = 0.0
    for b in coords:
        for c in coords:
            ric = 0.0
            for a in coords:
                ric += dg[(a, b, c, a)] - dg[(b, a, c, a)]
                for m in coords:
                    ric += g0[(a, m, a)] * g0[(b, c, m)] - g0[(b, m, a)] * g0[(a, c, m)]
            acc += ric * vt[b] * vt[c]
    return acc


def test_criterion_6_einstein_weyl_structures(corpus):
    tvals = [Fraction(4), Fraction(9, 2), Fraction(-1), Fraction(6), Fraction(-5, 3)]
    tested = 0
    for k, w, tag in corpus:
        if k != 2 or tag != "separable":
            continue
        web = make_web(2, w)
        assert is_hirota_solution(web, ZT) and canonical_connection(web).kind == "weyl"
        conn = weyl_connection(web)
        g = conformal_metric(web)
        res = weyl_compatibility_residuals(conn, g, None, ZT)
        assert all(v is Verdict.ZERO for _, v in res.values()), w
        nc = null_curve(web)
        for tv in tvals:
            assert ZT.verdict(_metric_value(g, null_curve_at(web, tv))) is Verdict.ZERO, (w, tv)
        # finite-difference curvature oracle at random base points
        rng = random.Random(31)
        exprs = [conn.christoffel(a, b, c) for a in web.coords for b in web.coords for c in web.coords]
        exprs += [f for fld in nc.fields for f in fld.comps.values()]
        for _ in range(2):
            env = sample_point(web, exprs, rng, scale=3)
            fenv = {kk: float(v) for kk, v in env.items()}
            for tv in (0.3, 1.7):
                vt = {c: 0.0 for c in web.coords}
                for i in range(3):
                    for c, e in nc.fields[i].comps.items():
                        vt[c] += tv ** i * float(eval_numeric(e, fenv))
                assert abs(_fd_ricci_value(conn, env, vt)) < 1e-7
        tested += 1
    assert tested >= 2
    # the non-separable exponential solution passes the same checks, and
    # Ric(V(t), V(t)), of degree at most 4 in t, is exactly zero at five t
    web = make_web(2, NONFLAT_W[2])
    assert is_hirota_solution(web, ZT) and canonical_connection(web).kind == "weyl"
    conn = weyl_connection(web)
    res = weyl_compatibility_residuals(conn, zero=ZT)
    assert all(v is Verdict.ZERO for _, v in res.values())
    ric, exact = ricci_tensor(conn), ZeroTester(trials=8, tolerance=0)
    for tv in RICCI_NULL_NODES:
        assert exact.verdict(ricci_null_value(conn, ric, tv)) is Verdict.ZERO, tv
    _passed(6, "k = 2 Einstein-Weyl data: Weyl condition, null cone, Ricci")


def test_criterion_7_flatness_and_bryant(corpus):
    flat_expect = {}
    for k, w, tag in corpus:
        if k not in (3, 4):
            continue
        web = make_web(k, w)
        if not is_hirota_solution(web, ZT):
            continue
        verdict = flatness_verdict(web, ZT)
        assert verdict is (tag == "separable"), (k, w, tag)
        flat_expect[(k, w)] = verdict
    assert any(flat_expect.values()) and not all(flat_expect.values())
    # the nonflat k = 5 web outside the corpus
    web = make_web(5, NONFLAT_W5)
    assert is_hirota_solution(web, ZT)
    assert flatness_verdict(web, ZT) is False

    # Bryant forms: beta vanishes precisely on the flat k = 3 webs
    for (k, w), flat in flat_expect.items():
        if k != 3:
            continue
        bf = bryant_forms(make_web(3, w))
        beta_zero = all(
            ZT.verdict(v) is Verdict.ZERO for b in bryant_betas(bf) for v in b.comps.values()
        )
        assert beta_zero is flat, (w, flat)

    # the non-flat k = 3 web has a torsion-free Bryant connection with
    # some beta nonzero; torsion measured numerically below 1e-8
    web = make_web(3, NONFLAT_W[3])
    assert is_hirota_solution(web, ZT)
    bf = bryant_forms(web)
    assert any(ZT.verdict(v) is Verdict.NONZERO for b in bryant_betas(bf) for v in b.comps.values())
    tres = bryant_torsion_residuals(bf, ZT)
    assert all(v is Verdict.ZERO for _, v in tres.values())
    rng = random.Random(13)
    exprs = [e for e, _ in tres.values()]
    worst = 0.0
    for _ in range(3):
        env = sample_point(web, exprs, rng, scale=2)
        fenv = {k_: float(v) for k_, v in env.items()}
        for e, _ in tres.values():
            worst = max(worst, abs(float(eval_numeric(e, fenv))))
    assert worst < 1e-8
    _passed(7, "flatness on the separable subcorpus; Bryant connection")


def test_criterion_8_zakharevich(corpus, corpus_reports):
    disagreements = 0
    for (k, w, _tag), rep in zip(corpus, corpus_reports):
        web = make_web(k, w)
        sampled = zakharevich_oracle(web, ZT)
        if sampled != is_hirota_solution(web, ZT) or rep["verdicts"]["zakharevich"] is not sampled:
            disagreements += 1
    assert disagreements == 0
    _passed(8, "sampled Zakharevich criterion agrees with the Hirota and report verdicts")


def test_criterion_9_determinism_and_roundtrip():
    problems = json.loads((DATA / "golden_problems.json").read_text(encoding="utf-8"))
    first, code1 = analyze_batch(problems)
    second, code2 = analyze_batch(problems)
    assert code1 == code2 == 0
    payload1, payload2 = dumps_report(first), dumps_report(second)
    assert payload1 == payload2
    golden = (DATA / "golden_report.json").read_text(encoding="utf-8")
    assert payload1 == golden

    rng = random.Random(424242)
    count = 0
    while count < 100:
        e = _random_expr(rng)
        text = to_string(e)
        again = parse_expr(text, EXPR_CTX)
        assert again is e, text
        assert to_string(again) == text
        count += 1

    # large shared DAGs: the order-5 abstract curvatures (0.4 MB of text)
    ode = OdeProblem.from_rhs(5, "abstract")
    for k in curvature_chain(ode).curvatures:
        assert parse_expr(to_string(k), ode.context) is k

    # entries with a def table: every def and every expression string
    # parses to the engine's node, and rendering those nodes again gives
    # the same bytes
    batch = {"problems": [{"kind": "ode", "order": order, "rhs": "abstract"} for order in (5, 6)]}
    entries = analyze_batch(batch)[0]["reports"]
    for entry in entries:
        ode = OdeProblem.from_rhs(entry["problem"]["order"], "abstract")
        chain = curvature_chain(ode)
        residuals = {r.name: r.expr for r in [*wunschmann_residuals(ode, chain),
                                              *cartan_residuals(ode, chain)]}
        extraction = {"coefficient_of_v_k": chain.residual_vk, "dt_component": chain.residual_dt}
        dag = _dag_ids([*chain.curvatures, *residuals.values(), *extraction.values()])
        defs: list = []
        for text in entry["defs"]:
            defs.append(parse_expr(text, ode.context, defs=defs))
            assert id(defs[-1]) in dag
        assert len(set(map(id, defs))) == len(defs) > 0

        def parse(text):
            return parse_expr(text, ode.context, defs=defs)

        nodes = copy.deepcopy(entry)
        del nodes["defs"]
        derived = nodes["derived"]
        derived["curvatures"] = [parse(text) for text in derived["curvatures"]]
        assert all(got is want for got, want in zip(derived["curvatures"], chain.curvatures, strict=True))
        for name, text in derived["extraction_residuals"].items():
            derived["extraction_residuals"][name] = parse(text)
            assert derived["extraction_residuals"][name] is extraction[name]
        assert [r["name"] for r in nodes["residuals"]] == list(residuals)
        for r in nodes["residuals"]:
            r["expression"] = parse(r["expression"])
            assert r["expression"] is residuals[r["name"]]
        assert dumps_report(report_mod._render(nodes)) == dumps_report(entry)

    # an entry's bytes do not depend on the problems run before it: the
    # order-6 entry above (after the golden batch and order 5) against the
    # same problem alone in a fresh interpreter
    script = ("import sys; from paraweb.report import analyze_batch, dumps_report; "
              "sys.stdout.write(dumps_report(analyze_batch(%r)[0]['reports'][0]))" % batch["problems"][1])
    env = dict(os.environ, PYTHONPATH=str(Path(report_mod.__file__).resolve().parents[1]), PYTHONIOENCODING="utf-8")
    alone = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True).stdout
    assert alone.decode("utf-8") == dumps_report(entries[1])
    _passed(9, "byte-stable golden reports and print/parse fixed point")


def _dag_ids(roots) -> set[int]:
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen.add(id(e))
            stack.extend(e.children)
    return seen
