"""Work done once per problem on the web path gives what recomputing gives.

The oracles here are the straightforward versions: the Ricci tensor with
every Christoffel product built, each Ricci component evaluated with its
own memo at base points drawn from the small box only, and every zero
test sampled by a fresh tester.
"""

from __future__ import annotations

import gc
import json
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import paraweb.webs as webs_mod
import paraweb.zerotest as zerotest_mod
from paraweb.expr import (
    ZERO,
    _evaluate,
    add_iter,
    differentiate,
    eval_numeric,
    free_symbols,
    mul,
    neg,
)
from paraweb.report import ProblemSpec, analyze_batch, analyze_web
from paraweb.webs import (
    WebConnection,
    _spectral_nodes,
    bryant_forms,
    canonical_connection,
    hirota_residuals,
    make_web,
    null_curve,
    omega_coefficient_forms,
    ricci_null_residuals,
    ricci_tensor,
)
from paraweb.zerotest import DEFAULT_TESTER, ZeroTester, _pole_free

from conftest import NONFLAT_W, zakharevich_oracle

DATA = Path(__file__).parent / "data"
ZT = ZeroTester()

# Hirota solutions for k = 1..5: separable ones, with an exp and a
# square, and the non-flat exponential corpus webs.
RICCI_WEBS = [
    (1, "x0 + x1^2/2"),
    (2, NONFLAT_W[2]),
    (2, "x0 + x1^2/2 + x2"),
    (3, NONFLAT_W[3]),
    (3, "2*x0 + x1 + x2^2/2 + x3"),
    (4, NONFLAT_W[4]),
    (5, "x0 + x1^2/2 + x2 + x3 + x4 + exp(x5)"),
]


def _ricci_with_zero_terms(conn: WebConnection) -> dict:
    """Ric(Y, Z) with every Christoffel product built, zero or not."""
    coords = conn.web.coords
    gam = {(a, b, c): conn.christoffel(a, b, c) for a in coords for b in coords for c in coords}
    out = {}
    for b in coords:
        for c in coords:
            terms = []
            for a in coords:
                terms.append(differentiate(gam[(b, c, a)], a))
                terms.append(neg(differentiate(gam[(a, c, a)], b)))
                for m in coords:
                    terms.append(mul(gam[(a, m, a)], gam[(b, c, m)]))
                    terms.append(neg(mul(gam[(b, m, a)], gam[(a, c, m)])))
            out[(b, c)] = add_iter(terms)
    return out


def _ricci_null_per_component(web, conn, point_samples: int = 4, seed: int = 0) -> list[float]:
    """|Ric(V(t), V(t))| with one memo per component and per field
    component, base points from numerators -8..8 over 4..12 only."""
    k = web.k
    ric = _ricci_with_zero_terms(conn)
    fields = null_curve(web).fields
    tvals = _spectral_nodes(web.t_params, 2 * k + 1)
    rng = random.Random(seed)
    symbols = set()
    for e in ric.values():
        symbols.update(free_symbols(e))
    for f in fields:
        for e in f.comps.values():
            symbols.update(free_symbols(e))
    symbols = sorted(symbols, key=lambda s: s.key)

    def evaluate(env):
        ric_num = {key: float(eval_numeric(e, env)) for key, e in ric.items()}
        v_num = [{c: float(eval_numeric(e, env)) for c, e in f.comps.items()} for f in fields]
        return ric_num, v_num

    out = []
    for _ in range(point_samples):
        values = _pole_free(
            lambda: {s: Fraction(rng.randint(-8, 8), rng.randint(4, 12)) for s in symbols}, evaluate, 40)
        assert values is not None
        ric_num, v_num = values
        for tval in tvals:
            t = float(tval)
            vt = {c: 0.0 for c in web.coords}
            for i, comps in enumerate(v_num):
                for c, val in comps.items():
                    vt[c] += t ** i * val
            out.append(abs(sum(val * vt[b] * vt[c] for (b, c), val in ric_num.items())))
    return out


def _connections(k: int, w: str) -> list[WebConnection]:
    web = make_web(k, w)
    conns = [canonical_connection(web, ZT)]
    if k == 3:
        bf = bryant_forms(web, ZT)
        conns.append(WebConnection(web, "bryant", christoffel_table=bf.christoffel_table))
    return conns


class TestRicci:
    @pytest.mark.parametrize("k,w", RICCI_WEBS)
    def test_tensor_is_the_node_with_zero_terms_kept(self, k, w):
        for conn in _connections(k, w):
            got, want = ricci_tensor(conn), _ricci_with_zero_terms(conn)
            assert got.keys() == want.keys()
            assert all(got[key] is want[key] for key in want)

    def test_tensor_builds_no_zero_product(self, monkeypatch):
        built = []

        def recording_mul(*factors):
            built.append(factors)
            return mul(*factors)

        conn = canonical_connection(make_web(4, NONFLAT_W[4]), ZT)
        monkeypatch.setattr(webs_mod, "mul", recording_mul)
        ricci_tensor(conn)
        assert built and not any(f is ZERO for factors in built for f in factors)

    @pytest.mark.parametrize("k,w", [kw for kw in RICCI_WEBS if kw[0] >= 2])
    def test_null_samples_equal_per_component_evaluation(self, k, w):
        web = make_web(k, w)
        conn = canonical_connection(web, ZT)
        for seed in (0, 5):
            assert ricci_null_residuals(web, conn, seed=seed) == \
                _ricci_null_per_component(web, conn, seed=seed)


class TestVerdictMemo:
    def _report_tester(self, monkeypatch, problem: dict) -> ZeroTester:
        testers = []
        make = ProblemSpec.tester

        def keep(spec):
            testers.append(make(spec))
            return testers[-1]

        monkeypatch.setattr(ProblemSpec, "tester", keep)
        analyze_web(ProblemSpec.from_dict(problem))
        (tester,) = testers
        return tester

    def test_memo_equals_fresh_sampling(self, monkeypatch):
        problem = {"kind": "web", "k": 3, "w": NONFLAT_W[3], "options": {"seed": 4}}
        tester = self._report_tester(monkeypatch, problem)
        # The report reads Zakharevich from the Hirota residuals; the
        # sampled criterion adds the wedge components it used to test.
        assert zakharevich_oracle(make_web(3, NONFLAT_W[3]), tester)
        assert len(tester._verdicts) > 40
        for e, got in tester._verdicts.items():
            fresh = ZeroTester(trials=tester.trials, tolerance=tester.tolerance, seed=tester.seed)
            assert fresh.verdict_stats(e) == got

    def test_repeated_call_does_not_sample(self, monkeypatch):
        evaluations = []

        def counting_evaluate(e, env, memo, arithmetic):
            evaluations.append(e)
            return _evaluate(e, env, memo, arithmetic)

        # Every sample is one walk of the evaluator: mod p here, since the
        # exp web is sampled exactly and a nonzero residue needs no more.
        monkeypatch.setattr(zerotest_mod, "_evaluate", counting_evaluate)
        web = make_web(2, NONFLAT_W[2])
        tester = ZeroTester(seed=9)
        first = tester.verdict_stats(web.dw2(0, 1))
        sampled = len(evaluations)
        assert sampled > 0
        assert tester.verdict_stats(web.dw2(0, 1)) == first
        assert len(evaluations) == sampled

    def test_memo_is_not_part_of_equality(self):
        used, fresh = ZeroTester(seed=3), ZeroTester(seed=3)
        used.verdict(make_web(1, "x0*x1 + x0").dw(0))
        assert used == fresh and hash(used) == hash(fresh)

    def test_batch_leaves_default_tester_alone_and_frees_its_testers(self, monkeypatch):
        refs = []
        make = ProblemSpec.tester

        def tracked(spec):
            tester = make(spec)
            refs.append(weakref.ref(tester))
            return tester

        monkeypatch.setattr(ProblemSpec, "tester", tracked)
        before = dict(DEFAULT_TESTER._verdicts)
        doc = json.loads((DATA / "golden_problems.json").read_text(encoding="utf-8"))
        report, _ = analyze_batch(doc)
        assert DEFAULT_TESTER._verdicts == before
        del report
        gc.collect()
        assert refs and all(ref() is None for ref in refs)


class TestWebObjects:
    def test_built_once_per_web(self):
        web = make_web(3, NONFLAT_W[3])
        assert null_curve(web) is null_curve(web)
        assert omega_coefficient_forms(web) is omega_coefficient_forms(web)
        assert hirota_residuals(web, ZT) is hirota_residuals(web, ZT)
        assert canonical_connection(web, ZT) is canonical_connection(web, ZT)
        assert hirota_residuals(web, ZeroTester(seed=1)) is not hirota_residuals(web, ZT)

    @pytest.mark.parametrize("k,w", [(3, NONFLAT_W[3]), (5, "x0 + x1^2/2 + x2 + x3 + x4 + exp(x5)")])
    def test_report_builds_hirota_and_connection_once(self, monkeypatch, k, w):
        built = []
        for name in ("_hirota_residuals", "_canonical_connection"):
            def counting(web, zero, _build=getattr(webs_mod, name), _name=name):
                built.append(_name)
                return _build(web, zero)

            monkeypatch.setattr(webs_mod, name, counting)
        rep = analyze_web(ProblemSpec.from_dict({"kind": "web", "k": k, "w": w}))
        assert rep["verdicts"]["hirota"] and "flat" in rep["verdicts"]
        assert sorted(built) == ["_canonical_connection", "_hirota_residuals"]

    def test_null_dual_is_read_not_inverted(self, monkeypatch):
        # A k = 3 report reads the dual of the null frame from omega's
        # coefficients for its connection tables, the Bryant coframe and
        # the Bryant Christoffel table; another web with the same spectral
        # constants reuses the tables.  Each read is the exact inverse of
        # the null-curve coefficient matrix r: sum_j r[i][j] D[j][l] is 1
        # when i = l and 0 otherwise.
        reads = []

        def recording(t, _real=webs_mod._null_dual):
            reads.append(_real(t))
            return reads[-1]

        monkeypatch.setattr(webs_mod, "_null_dual", recording)
        webs_mod._diagonal_tables.cache_clear()
        rep = analyze_web(ProblemSpec.from_dict({"kind": "web", "k": 3, "w": NONFLAT_W[3]}))
        assert "bryant" in rep["derived"] and rep["derived"]["connection"]["type"] == "diagonal"
        assert len(reads) == 3
        analyze_web(ProblemSpec.from_dict({"kind": "web", "k": 3, "w": "x0+x1+x2+x3"}))
        assert len(reads) == 5
        r = null_curve(make_web(3, NONFLAT_W[3])).coefficient_matrix()
        for d in reads:
            assert [[sum(r[i][j] * d[j][l] for j in range(4)) for l in range(4)] for i in range(4)] == \
                [[int(i == l) for l in range(4)] for i in range(4)]

    def test_cache_is_per_instance(self):
        w = "x0 + x1^2/2 + x2"
        default = make_web(2, w)
        moved = make_web(2, w, t_params=(0, 1, 2, 5))
        assert null_curve(default) is not null_curve(moved)
        assert null_curve(default).coefficient_matrix() != null_curve(moved).coefficient_matrix()
        assert omega_coefficient_forms(default) is not omega_coefficient_forms(moved)
        assert omega_coefficient_forms(default)[0].comps != omega_coefficient_forms(moved)[0].comps
        # equal presentations compare equal whatever they cached
        again = make_web(2, w)
        assert again == default
        assert null_curve(again) is not null_curve(default)
