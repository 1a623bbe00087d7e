"""Work done once per problem on the web path gives what recomputing gives.

The oracles here are the straightforward versions: the Ricci tensor with
every Christoffel product built, and every zero test sampled by a fresh
tester.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import sys
import weakref
from pathlib import Path

import pytest

import paraweb.webs as webs_mod
import paraweb.zerotest as zerotest_mod
from paraweb.expr import ZERO, _evaluate, add_iter, differentiate, mul, neg
from paraweb.report import ProblemSpec, analyze_batch, analyze_web
from paraweb.webs import (
    WebConnection,
    bryant_forms,
    canonical_connection,
    hirota_residuals,
    hirota_verdicts,
    make_web,
    null_curve,
    omega_coefficient_forms,
)
from paraweb.zerotest import Verdict, ZeroTester

import oracles
from conftest import NONFLAT_W, lax_commutes, zakharevich_oracle
from oracles import coefficient_matrix, coframe_matrix, eq1_residuals, lax_commutator_residuals, ricci_tensor

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


def _ricci_with_zero_terms(conn: WebConnection | oracles.TableConnection) -> dict:
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


def _connections(k: int, w: str) -> list[WebConnection | oracles.TableConnection]:
    web = make_web(k, w)
    if k == 2:
        return [oracles.weyl_connection(web)]
    conns = [canonical_connection(web)]
    if k == 3:
        conns.append(oracles.bryant_connection(bryant_forms(web)))
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

        conn = canonical_connection(make_web(4, NONFLAT_W[4]))
        monkeypatch.setattr(oracles, "mul", recording_mul)
        ricci_tensor(conn)
        assert built and not any(f is ZERO for factors in built for f in factors)


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
        # The report reads Zakharevich, the hierarchy and Lax from the
        # Hirota triples through 0; the sampled criteria add the wedge
        # components, and the hierarchy and Lax residuals, it used to test.
        web = make_web(3, NONFLAT_W[3])
        assert zakharevich_oracle(web, tester) and lax_commutes(web, tester)
        assert all(tester.verdict(e) is Verdict.ZERO for e in eq1_residuals(web).values())
        assert len(tester._verdicts) > 40
        for e, got in tester._verdicts.items():
            fresh = ZeroTester(trials=tester.trials, tolerance=tester.tolerance, seed=tester.seed)
            assert fresh.verdict_stats(e) == got

    @pytest.mark.parametrize("k, w", [(4, "w"), (3, NONFLAT_W[3])], ids=["generic-k4", "nonflat-k3"])
    def test_report_tests_no_residual_it_reads(self, monkeypatch, k, w):
        # Hierarchy and Lax residuals carry the verdicts of the Hirota
        # triples through 0, and on a solution so does the triple (1, 2, 3).
        web = make_web(k, w)
        read = [*eq1_residuals(web).values(), *lax_commutator_residuals(web).values()]
        h123 = hirota_residuals(web)[(1, 2, 3)]
        tested = []
        verdict_stats = ZeroTester.verdict_stats

        def record(tester, e):
            tested.append(e)
            return verdict_stats(tester, e)

        monkeypatch.setattr(ZeroTester, "verdict_stats", record)
        rep = analyze_web(ProblemSpec.from_dict({"kind": "web", "k": k, "w": w}))
        assert len(read) == k * (k - 1) // 2 * 3
        assert tested and not set(read) & set(tested)
        assert rep["verdicts"]["hirota"] is (w != "w")
        assert (h123 in tested) is (w == "w")

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
        # The package keeps no tester of its own that a batch could fill:
        # only decisions take one, and each problem brings its own.
        modules = [m for name, m in sys.modules.items() if name.startswith("paraweb.")]
        assert len(modules) >= 9
        assert not [v for m in modules for v in vars(m).values() if isinstance(v, ZeroTester)]
        golden = json.loads((DATA / "golden_problems.json").read_text(encoding="utf-8"))
        # listed twice, the repeats reuse the entries of the first listing
        for doc in (golden, {"problems": golden["problems"] * 2}):
            refs.clear()
            report, _ = analyze_batch(doc)
            del report
            gc.collect()
            assert refs and all(ref() is None for ref in refs)


class TestWebObjects:
    def test_built_once_per_web(self):
        web = make_web(3, NONFLAT_W[3])
        assert null_curve(web) is null_curve(web)
        assert omega_coefficient_forms(web) is omega_coefficient_forms(web)
        assert canonical_connection(web) is canonical_connection(web)
        assert bryant_forms(web) is bryant_forms(web)
        # one build, whatever tester decides it
        built = hirota_residuals(web)
        assert hirota_verdicts(web, ZeroTester(seed=1)) == hirota_verdicts(web, ZT)
        assert hirota_residuals(web) is built

    @pytest.mark.parametrize("k,w", [(3, NONFLAT_W[3]), (5, "x0 + x1^2/2 + x2 + x3 + x4 + exp(x5)")])
    def test_report_builds_hirota_and_connection_once(self, monkeypatch, k, w):
        built = []
        for name in ("_hirota_residuals", "_diagonal_connection"):
            def counting(web, _build=getattr(webs_mod, name), _name=name):
                built.append(_name)
                return _build(web)

            monkeypatch.setattr(webs_mod, name, counting)
        rep = analyze_web(ProblemSpec.from_dict({"kind": "web", "k": k, "w": w}))
        assert rep["verdicts"]["hirota"] and "flat" in rep["verdicts"]
        assert sorted(built) == ["_diagonal_connection", "_hirota_residuals"]

    def test_null_dual_is_read_not_inverted(self, monkeypatch):
        # A k = 3 report reads the dual of the null frame from omega's
        # coefficient forms, built once for the coframe that the Bryant
        # forms read; the diagonal
        # connection's tables take it from the leave-one-out products.
        # Another web builds them once more.  Each coframe is the exact
        # inverse of the null-curve coefficient matrix r: sum_j r[i][j]
        # D[j][l] is 1 when i = l and 0 otherwise.
        built = []

        def recording(web, _real=webs_mod._omega_coefficient_forms):
            built.append(web)
            return _real(web)

        monkeypatch.setattr(webs_mod, "_omega_coefficient_forms", recording)
        rep = analyze_web(ProblemSpec.from_dict({"kind": "web", "k": 3, "w": NONFLAT_W[3]}))
        assert "bryant" in rep["derived"] and rep["derived"]["connection"]["type"] == "diagonal"
        assert len(built) == 1
        analyze_web(ProblemSpec.from_dict({"kind": "web", "k": 3, "w": "x0+x1+x2+x3"}))
        assert len(built) == 2
        for web in built:
            curve = null_curve(web)
            r, d = coefficient_matrix(curve), coframe_matrix(curve)
            assert d == oracles.null_dual(web.t_params)
            assert [[sum(r[i][j] * d[j][l] for j in range(4)) for l in range(4)] for i in range(4)] == \
                [[int(i == l) for l in range(4)] for i in range(4)]

    def test_k3_reports_build_no_christoffel_table(self, monkeypatch):
        # A k = 3 report prints the Bryant forms and a k = 2 report the Weyl
        # connection's forms with the Weyl form read from them, so neither
        # builds a Christoffel table: the table builder and the table field
        # live in tests/oracles.py only, and no report reaches them.
        assert not hasattr(webs_mod, "_paraconformal_christoffels")
        assert "christoffel_table" not in {f.name for f in dataclasses.fields(WebConnection)}
        built = []

        def counting(web, *args, _real=oracles.paraconformal_christoffels):
            built.append(web.k)
            return _real(web, *args)

        monkeypatch.setattr(oracles, "paraconformal_christoffels", counting)
        for w in (NONFLAT_W[3], "2*x0 + x1 + x2^2/2 + x3"):
            rep = analyze_web(ProblemSpec.from_dict({"kind": "web", "k": 3, "w": w}))
            assert sorted(rep["derived"]["bryant"]) == ["alpha", "beta0", "beta1", "beta2"]
        for w in (NONFLAT_W[2], "x0 + x1^2/2 + x2"):
            rep = analyze_web(ProblemSpec.from_dict({"kind": "web", "k": 2, "w": w}))
            assert rep["derived"]["connection"]["type"] == "weyl"
            assert set(rep["derived"]["connection"]) == {"type", "f", "alpha_tilde", "metric", "weyl_form"}
        assert built == []
        # the counter sees the oracle's own builds
        oracles.weyl_connection(make_web(2, NONFLAT_W[2]))
        assert built == [2]

    def test_cache_is_per_instance(self):
        w = "x0 + x1^2/2 + x2"
        default = make_web(2, w)
        moved = make_web(2, w, t_params=(0, 1, 2, 5))
        assert null_curve(default) is not null_curve(moved)
        assert coefficient_matrix(null_curve(default)) != coefficient_matrix(null_curve(moved))
        assert omega_coefficient_forms(default) is not omega_coefficient_forms(moved)
        assert omega_coefficient_forms(default)[0].comps != omega_coefficient_forms(moved)[0].comps
        # equal presentations compare equal whatever they cached
        again = make_web(2, w)
        assert again == default
        assert null_curve(again) is not null_curve(default)
