"""Problem parsing, report pipeline, CLI behaviour, determinism."""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from paraweb.cli import main as cli_main
from paraweb.jet import FrameError
from paraweb.report import (
    MAX_TRIALS,
    InputError,
    ProblemSpec,
    analyze_batch,
    analyze_ode,
    analyze_web,
    dumps_report,
)
from paraweb.webs import InterpolationError, NotAWebError, WebError

from conftest import NONFLAT_W, random_polynomial_w

DATA = Path(__file__).parent / "data"


def spec(d, defaults=None):
    return ProblemSpec.from_dict(d, defaults)


class TestProblemSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(InputError):
            spec({"kind": "pde"})

    def test_rejects_low_order(self):
        with pytest.raises(InputError):
            spec({"kind": "ode", "order": 1, "rhs": "0"})

    def test_rejects_repeated_t_params(self):
        with pytest.raises(InputError):
            spec({"kind": "web", "k": 2, "w": "x0+x1+x2", "t_params": ["0", "1", "1", "3"]})

    def test_rejects_wrong_t_param_count(self):
        with pytest.raises(InputError):
            spec({"kind": "web", "k": 2, "w": "x0+x1+x2", "t_params": ["0", "1", "2"]})

    def test_defaults_and_overrides(self):
        s = spec({"kind": "ode", "order": 3, "rhs": "0"}, defaults={"seed": 5})
        assert (s.trials, s.tolerance, s.seed) == (8, 1e-9, 5)
        s2 = spec({"kind": "ode", "order": 3, "rhs": "0", "options": {"seed": 9}},
                  defaults={"seed": 5})
        assert s2.seed == 9

    @pytest.mark.parametrize("name,value", [
        ("trials", "abc"),
        ("seed", [1]),
        ("trials", True),
        ("tolerance", -1e-9),
    ])
    def test_bad_option_value_is_an_error_entry(self, name, value):
        with pytest.raises(InputError, match=name):
            spec({"kind": "ode", "order": 3, "rhs": "0", "options": {name: value}})
        doc = {"problems": [
            {"kind": "ode", "order": 3, "rhs": "0", "options": {name: value}},
            {"kind": "ode", "order": 3, "rhs": "0"},
        ]}
        report, code = analyze_batch(doc)
        assert code == 1
        assert [r["status"] for r in report["reports"]] == ["error", "ok"]

    @pytest.mark.parametrize("raw", [
        {"kind": "web", "k": True, "w": "x0+x1"},
        {"kind": "ode", "order": True, "rhs": "0"},
        {"kind": "web", "k": 1, "w": "x0+x1", "t_params": ["0", True, "2"]},
    ])
    def test_bool_is_not_an_integer(self, raw):
        # JSON true is a Python int; it must not pass as k = 1 or t = 1.
        with pytest.raises(InputError):
            spec(raw)
        report, code = analyze_batch({"problems": [raw, {"kind": "web", "k": 1, "w": "x0+x1"}]})
        assert code == 1
        assert [r["status"] for r in report["reports"]] == ["error", "ok"]

    def test_options_must_be_an_object(self):
        with pytest.raises(InputError, match="options"):
            spec({"kind": "ode", "order": 3, "rhs": "0", "options": [["seed", 1]]})

    def test_rational_parsing(self):
        s = spec({"kind": "web", "k": 1, "w": "x0+x1", "t_params": ["1/2", "-3", "5/4"]})
        from fractions import Fraction

        assert s.t_params == (Fraction(1, 2), Fraction(-3), Fraction(5, 4))


class TestAnalyzeOde:
    def test_trivial_third_order(self):
        rep = analyze_ode(spec({"kind": "ode", "order": 3, "rhs": "0"}))
        assert rep["classification"] == "totally-geodesic paraconformal"
        assert all(r["verdict"] == "zero" for r in rep["residuals"])
        assert rep["derived"]["curvatures"] == ["0", "0"]

    def test_hypergeodesic_third_order(self):
        rep = analyze_ode(spec({"kind": "ode", "order": 3, "rhs": "3*x2^2/(2*x1)"}))
        assert rep["derived"]["curvatures"] == ["0", "0"]
        assert rep["classification"] == "totally-geodesic paraconformal"
        assert all(r["verdict"] == "zero" for r in rep["residuals"])

    def test_abstract_third_order_identity_checks(self):
        rep = analyze_ode(spec({"kind": "ode", "order": 3, "rhs": "abstract"}))
        names = {r["name"]: r["verdict"] for r in rep["residuals"]}
        assert names["identity[wunschmann-coordinate]"] == "zero"
        assert names["identity[cartan-coordinate]"] == "zero"
        assert names["wunschmann[0]"] == "nonzero"
        assert rep["classification"] == "no structure"

    def test_wunschmann_only_classification(self):
        rep = analyze_ode(spec({"kind": "ode", "order": 3, "rhs": "x2^3"}))
        assert rep["classification"] == "Wünschmann only"

    def test_beta_emitted_for_order4_structure(self):
        rep = analyze_ode(spec({"kind": "ode", "order": 4, "rhs": "0"}))
        assert rep["derived"]["beta_b"] == "0"

    def test_parse_error_carries_position(self):
        with pytest.raises(InputError, match="position"):
            analyze_ode(spec({"kind": "ode", "order": 3, "rhs": "x2 +* 1"}))

    def test_higher_order_classification(self):
        rep = analyze_ode(spec({"kind": "ode", "order": 5, "rhs": "0"}))
        assert rep["classification"] == "necessary-conditions-only (order ≥ 5)"


class TestAnalyzeWeb:
    def test_separable_k2_emits_metric_and_weyl_form(self):
        rep = analyze_web(spec({"kind": "web", "k": 2, "w": "x0+x1+x2",
                                "t_params": ["0", "1", "2", "3"]}))
        assert rep["verdicts"]["hirota"] is True
        conn = rep["derived"]["connection"]
        assert conn["type"] == "weyl"
        assert set(conn) == {"type", "f", "alpha_tilde", "metric", "weyl_form"}
        assert rep["derived"]["ricci_null_max"] == 0.0

    def test_degenerate_web_is_input_error(self):
        with pytest.raises(InputError, match="dw/dx2"):
            analyze_web(spec({"kind": "web", "k": 3, "w": "x0*x1"}))

    def test_non_solution_suppresses_connection(self):
        rep = analyze_web(spec({"kind": "web", "k": 2, "w": "x0*x1*x2 + x0 + x1 + x2"}))
        assert rep["verdicts"]["hirota"] is False
        assert rep["verdicts"]["lax"] is False
        assert rep["verdicts"]["zakharevich"] is False
        assert "connection" not in rep["derived"]
        assert "ricci_null_max" not in rep["derived"]

    def test_pencil_affine_for_webs_and_non_webs(self):
        rng = random.Random(11)
        cases = [(random_polynomial_w(k, rng), k, False) for k in (2, 3)]
        cases.append(("x0 + x1^2/2 + x2", 2, True))
        for w, k, hirota in cases:
            rep = analyze_web(spec({"kind": "web", "k": k, "w": w}))
            assert rep["verdicts"]["hirota"] is hirota, w
            assert rep["verdicts"]["pencil_affine"] is True, w

    def test_no_entry_prints_jacobi_max(self, corpus_reports):
        # [Pi(t), Pi(t)] = 0 is decided by verdicts.lax; no float maximum is printed
        golden = json.loads((DATA / "golden_report.json").read_text(encoding="utf-8"))["reports"]
        entries = [e for e in corpus_reports + golden if e["status"] == "ok" and "verdicts" in e]
        assert any("connection" in e["derived"] for e in entries)
        for entry in entries:
            assert "jacobi_max" not in entry["derived"], entry["problem"]
            assert "jacobi" not in entry["verdicts"], entry["problem"]

    def test_diagonal_connection_reports_exact_ricci_null(self, monkeypatch):
        # Ric of a diagonal connection is antisymmetric (test_webs.py::
        # TestRicci::test_diagonal_ricci_is_d_alpha), so the report builds
        # no Ricci tensor and samples nothing for it.
        import paraweb.report as report_mod
        import paraweb.webs as webs_mod

        def boom(*args, **kwargs):
            raise AssertionError("Ricci built for a diagonal connection")

        monkeypatch.setattr(report_mod, "ricci_null_residuals", boom)
        monkeypatch.setattr(webs_mod, "ricci_tensor", boom)
        for k, w in ((3, NONFLAT_W[3]), (5, "x0 + 2*x1 + 3*x2 + 4*x3 + 5*x4 + 6*x5")):
            rep = analyze_web(spec({"kind": "web", "k": k, "w": w}))
            assert rep["derived"]["connection"]["type"] == "diagonal", w
            assert rep["derived"]["ricci_null_max"] == 0.0, w

    def test_weyl_connection_samples_ricci_null_once(self, monkeypatch):
        import paraweb.report as report_mod

        sampler = report_mod.ricci_null_residuals
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return sampler(*args, **kwargs)

        monkeypatch.setattr(report_mod, "ricci_null_residuals", counting)
        rep = analyze_web(spec({"kind": "web", "k": 2, "w": NONFLAT_W[2]}))
        assert rep["derived"]["connection"]["type"] == "weyl"
        assert len(calls) == 1
        assert rep["derived"]["ricci_null_max"] < 1e-6

    def test_k3_solution_emits_bryant_and_flatness(self):
        rep = analyze_web(spec({"kind": "web", "k": 3, "w": "x0+x1+x2+x3"}))
        assert rep["verdicts"]["flat"] is True
        assert rep["derived"]["connection"]["type"] == "diagonal"
        assert set(rep["derived"]["bryant"]) == {"beta0", "beta1", "beta2", "alpha"}


class TestBatchAndCli:
    def test_batch_exit_codes(self):
        doc = {"problems": [
            {"kind": "ode", "order": 3, "rhs": "0"},
            {"kind": "web", "k": 3, "w": "x0*x1"},
        ]}
        report, code = analyze_batch(doc)
        assert code == 1
        assert report["reports"][0]["status"] == "ok"
        assert report["reports"][1]["status"] == "error"

    def test_bare_problem_document(self):
        report, code = analyze_batch({"kind": "ode", "order": 2, "rhs": "0"})
        assert code == 0 and len(report["reports"]) == 1

    def test_extraction_failure_exit_code(self, monkeypatch, tmp_path):
        import paraweb.report as report_mod
        from paraweb.invariants import ExtractionError

        def boom(spec):
            raise ExtractionError("synthetic")

        monkeypatch.setattr(report_mod, "analyze_ode", boom)
        doc = {"problems": [{"kind": "ode", "order": 3, "rhs": "0"}]}
        report, code = report_mod.analyze_batch(doc)
        assert code == 2
        assert "extraction failure" in report["reports"][0]["error"]

    def test_failure_after_validation_is_an_error_entry(self, tmp_path, capsys, monkeypatch):
        # A base-point sampler that never finds a pole-free point: the web
        # passes validation and every symbolic check, then the Ricci
        # samples fail.
        import paraweb.webs as webs_mod

        monkeypatch.setattr(webs_mod, "_pole_free", lambda draw, evaluate, attempts: None)
        src = tmp_path / "problems.json"
        out = tmp_path / "report.json"
        src.write_text(json.dumps({"problems": [
            {"kind": "web", "k": 2, "w": "x0 + x1^2/2 + x2"},
            {"kind": "ode", "order": 3, "rhs": "0"},
        ]}), encoding="utf-8")
        assert cli_main(["analyze", str(src), "--out", str(out)]) == 2
        data = json.loads(out.read_text(encoding="utf-8"))
        assert [r["status"] for r in data["reports"]] == ["error", "ok"]
        assert "pole-free base point" in data["reports"][0]["error"]
        assert "ERROR analysis failure" in capsys.readouterr().out

    def test_web_defined_away_from_the_origin_is_sampled(self):
        # sqrt(x0 - 2) is real only for x0 > 2, outside the first
        # base-point box (|x| <= 2); the wider box reaches it.
        report, code = analyze_batch({"kind": "web", "k": 2, "w": "sqrt(x0-2) + x1 + x2"})
        (entry,) = report["reports"]
        assert code == 0 and entry["status"] == "ok"
        assert entry["verdicts"]["hirota"] and entry["derived"]["connection"]["type"] == "weyl"
        assert entry["derived"]["ricci_null_max"] < 1e-9
        assert entry["verdicts"]["lax"]

    @pytest.mark.parametrize("error", [
        InterpolationError, NotAWebError, WebError, FrameError])
    def test_analysis_failures_exit_2(self, monkeypatch, error):
        import paraweb.report as report_mod

        def boom(spec):
            raise error("synthetic")

        monkeypatch.setattr(report_mod, "analyze_web", boom)
        doc = {"problems": [{"kind": "web", "k": 2, "w": "x0+x1+x2"},
                            {"kind": "ode", "order": 3, "rhs": "0"}]}
        report, code = report_mod.analyze_batch(doc)
        assert code == 2
        assert report["reports"][0] == {"problem": doc["problems"][0], "status": "error",
                                        "error": "analysis failure: synthetic"}
        assert report["reports"][1]["status"] == "ok"

    def test_exponent_beyond_the_bound_is_an_error_entry(self, tmp_path):
        # Unbounded, the exact zero test would raise sampled rationals to
        # this power and the batch would not finish.
        src = tmp_path / "problems.json"
        out = tmp_path / "report.json"
        src.write_text(json.dumps({"problems": [
            {"kind": "ode", "order": 3, "rhs": "x2^100000000"},
            {"kind": "ode", "order": 3, "rhs": "0"},
        ]}), encoding="utf-8")
        start = time.monotonic()
        assert cli_main(["analyze", str(src), "--out", str(out)]) == 1
        assert time.monotonic() - start < 5
        data = json.loads(out.read_text(encoding="utf-8"))
        assert [r["status"] for r in data["reports"]] == ["error", "ok"]
        assert "budget exceeded" in data["reports"][0]["error"]

    def test_reference_in_a_problem_is_an_error_entry(self, tmp_path):
        # @n names a def of a report entry; problems have none.
        src = tmp_path / "problems.json"
        out = tmp_path / "report.json"
        src.write_text(json.dumps({"problems": [
            {"kind": "ode", "order": 3, "rhs": "x2 + @1"},
            {"kind": "web", "k": 2, "w": "@1"},
            {"kind": "ode", "order": 3, "rhs": "0"},
        ]}), encoding="utf-8")
        assert cli_main(["analyze", str(src), "--out", str(out)]) == 1
        data = json.loads(out.read_text(encoding="utf-8"))
        assert [r["status"] for r in data["reports"]] == ["error", "error", "ok"]
        assert data["reports"][0]["error"] == "bad rhs: undefined reference @1 (at position 5)"
        assert data["reports"][1]["error"] == "bad w: undefined reference @1 (at position 0)"

    @pytest.mark.parametrize("rhs", ["(x2^100)^100 + x1", "(x2^1000)^1000 + x1"])
    def test_nested_exponents_are_sampled_quickly(self, rhs):
        # Each literal is within the bound, but the power is x2^1000000.
        start = time.monotonic()
        report, code = analyze_batch({"kind": "ode", "order": 3, "rhs": rhs})
        assert time.monotonic() - start < 5
        assert code == 0
        assert report["reports"][0]["status"] == "ok"

    @pytest.mark.parametrize("literal", ["1e999999", "1e-99999999"])
    def test_huge_rational_literal_is_an_error_entry(self, tmp_path, literal):
        # Unbounded, the first could not be echoed (its numerator exceeds
        # the int-to-str digit limit) and the second was never built.
        src = tmp_path / "problems.json"
        out = tmp_path / "report.json"
        src.write_text(json.dumps({"problems": [
            {"kind": "web", "k": 1, "w": "x0+x1"},
            {"kind": "web", "k": 1, "w": "x0+x1", "t_params": ["0", "1", literal]},
        ]}), encoding="utf-8")
        start = time.monotonic()
        assert cli_main(["analyze", str(src), "--out", str(out)]) == 1
        assert time.monotonic() - start < 5
        data = json.loads(out.read_text(encoding="utf-8"))
        assert [r["status"] for r in data["reports"]] == ["ok", "error"]
        assert data["reports"][1]["error"].startswith("budget exceeded: ")

    @pytest.mark.parametrize("w", [
        "(10^40)^1000*x0 + x1 + x2",
        "C*x0*x1 + C*x1*x2 + x0 + x2".replace("C", "9" * 3000),
    ], ids=["nested-power", "squared-in-hirota"])
    def test_huge_integer_constant_is_an_error_entry(self, tmp_path, w):
        # Unbounded, the printer met a constant of more than 4,300 digits
        # (10^40000, or the square of the 3,000-digit constant in a Hirota
        # residual), raised past the int-to-str digit limit, and the CLI
        # wrote no report at all.
        src = tmp_path / "problems.json"
        out = tmp_path / "report.json"
        src.write_text(json.dumps({"problems": [
            {"kind": "web", "k": 2, "w": "x0+x1+x2"},
            {"kind": "web", "k": 2, "w": w},
            {"kind": "ode", "order": 3, "rhs": "0"},
        ]}), encoding="utf-8")
        start = time.monotonic()
        assert cli_main(["analyze", str(src), "--out", str(out)]) == 1
        assert time.monotonic() - start < 5
        data = json.loads(out.read_text(encoding="utf-8"))
        assert [r["status"] for r in data["reports"]] == ["ok", "error", "ok"]
        assert "budget exceeded: constants have at most 4000 digits" in data["reports"][1]["error"]

    def test_trials_beyond_the_budget_is_an_error_entry(self, tmp_path):
        # Unbounded, the zero test would draw this many points per
        # expression and the batch would not finish.
        assert spec({"kind": "ode", "order": 2, "rhs": "0",
                     "options": {"trials": MAX_TRIALS}}).trials == MAX_TRIALS
        src = tmp_path / "problems.json"
        out = tmp_path / "report.json"
        src.write_text(json.dumps({"problems": [
            {"kind": "ode", "order": 2, "rhs": "abstract", "options": {"trials": 100000000}},
            {"kind": "ode", "order": 2, "rhs": "abstract", "options": {"trials": MAX_TRIALS + 1}},
            {"kind": "ode", "order": 2, "rhs": "abstract"},
        ]}), encoding="utf-8")
        start = time.monotonic()
        assert cli_main(["analyze", str(src), "--out", str(out)]) == 1
        assert time.monotonic() - start < 5
        data = json.loads(out.read_text(encoding="utf-8"))
        assert [r["status"] for r in data["reports"]] == ["error", "error", "ok"]
        assert all(r["error"].startswith("budget exceeded: ") for r in data["reports"][:2])

    def test_cli_roundtrip(self, tmp_path):
        src = tmp_path / "problems.json"
        out = tmp_path / "report.json"
        src.write_text(json.dumps({"problems": [
            {"kind": "ode", "order": 3, "rhs": "0"},
            {"kind": "web", "k": 2, "w": "x0+x1+x2"},
        ]}), encoding="utf-8")
        code = cli_main(["analyze", str(src), "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert len(data["reports"]) == 2

    @pytest.mark.parametrize("document", [[{"kind": "ode", "order": 3, "rhs": "0"}], 5, "problems"])
    def test_cli_top_level_non_object(self, tmp_path, capsys, document):
        src = tmp_path / "problems.json"
        out = tmp_path / "report.json"
        src.write_text(json.dumps(document), encoding="utf-8")
        assert cli_main(["analyze", str(src), "--out", str(out)]) == 1
        data = json.loads(out.read_text(encoding="utf-8"))
        assert [r["status"] for r in data["reports"]] == ["error"]
        assert "ERROR" in capsys.readouterr().out

    def test_cli_missing_file(self, capsys):
        assert cli_main(["analyze", "/nonexistent/problems.json"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_cli_unwritable_out(self, tmp_path, capsys, monkeypatch):
        import paraweb.report as report_mod

        analysed = []
        monkeypatch.setattr(report_mod, "analyze_problem", analysed.append)
        src = tmp_path / "problems.json"
        src.write_text(json.dumps({"kind": "ode", "order": 3, "rhs": "0"}), encoding="utf-8")
        out = tmp_path / "missing" / "report.json"
        assert cli_main(["analyze", str(src), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"error: cannot write {out}: " in captured.err
        assert captured.out == "" and not out.parent.exists()
        # the directory is checked before the batch, so nothing was analysed
        assert analysed == []

    def test_cli_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert cli_main(["analyze", str(bad)]) == 1

    def test_cli_seed_override(self, tmp_path):
        src = tmp_path / "problems.json"
        src.write_text(json.dumps({"kind": "ode", "order": 2, "rhs": "0"}), encoding="utf-8")
        out = tmp_path / "r.json"
        assert cli_main(["analyze", str(src), "--seed", "7", "--out", str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["reports"][0]["problem"]["options"]["seed"] == 7


class TestDeterminism:
    def test_identical_spec_and_seed_yield_identical_bytes(self):
        doc = {"problems": [
            {"kind": "ode", "order": 3, "rhs": "x2^3"},
            {"kind": "ode", "order": 4, "rhs": "abstract"},
            {"kind": "web", "k": 2, "w": "x0 + x1^2/2 + x2"},
        ]}
        a, _ = analyze_batch(doc)
        b, _ = analyze_batch(doc)
        assert dumps_report(a) == dumps_report(b)

    def test_verdict_coherence(self):
        # a report never emits connection data when a prerequisite
        # residual is nonzero
        rep = analyze_web(spec({"kind": "web", "k": 3,
                                "w": "x0+x1+x2+x3 + x1*x2"}))
        assert rep["verdicts"]["hirota"] is False
        assert "connection" not in rep["derived"]
        assert "bryant" not in rep["derived"]
        rep2 = analyze_ode(spec({"kind": "ode", "order": 4, "rhs": "x0"}))
        assert "beta_b" not in rep2["derived"]

    def test_golden_report_bytes(self):
        problems = json.loads((DATA / "golden_problems.json").read_text(encoding="utf-8"))
        report, code = analyze_batch(problems)
        assert code == 0
        golden = (DATA / "golden_report.json").read_text(encoding="utf-8")
        assert dumps_report(report) == golden
