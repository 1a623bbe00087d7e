"""Self-checks of the benchmark itself.

    python3 -m pytest bench -q

They run the traced child on small inputs and check that the tracer's
counts repeat exactly, that it reproduces known call counts, that the
report checks reject wrong outcomes, that the answer the benchmark
expects for the known defect is the right one, and that the host-speed
scaling of ``batch_s`` undoes a slow spell.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

# Counts that must not change between two traced runs of the same input.
REPEATABLE = (
    "expr.diff.calls", "expr.eval.calls", "invariants.chain.calls", "jet.calls", "parser.calls",
    "report.render_calls", "webs.canonical_connection.calls", "webs.hirota_residuals.calls",
    "webs.null_curve.calls", "webs.omega_coefficient_forms.calls", "zerotest.calls",
    "zerotest.distinct", "expr.intern_growth", "report.render_bytes",
)


def traced(problems: list[dict], tmp_path: Path, tag: str) -> dict:
    """Run one cold traced batch; the child's measurements plus report_bytes."""
    doc = tmp_path / f"{tag}.in.json"
    doc.write_text(json.dumps(workloads.document(problems)), encoding="utf-8")
    job = {"src": str(ROOT / "src"), "input": str(doc), "output": str(tmp_path / f"{tag}.out.json"),
           "result": str(tmp_path / f"{tag}.res.json"), "trace": True,
           "spans": str(tmp_path / f"{tag}.spans.jsonl")}
    subprocess.run([sys.executable, str(HERE / "child.py"), repr(time.monotonic()), json.dumps(job)],
                   check=True, stdout=subprocess.DEVNULL, timeout=170)
    out = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    out["report_bytes"] = Path(job["output"]).stat().st_size
    out["report"] = json.loads(Path(job["output"]).read_text(encoding="utf-8"))
    return out


def test_traced_counts_repeat_exactly(tmp_path):
    problems = workloads.problems_for("mixed-batch", 7, ROOT)
    first, second = traced(problems, tmp_path, "a"), traced(problems, tmp_path, "b")
    assert first["report_bytes"] == second["report_bytes"]
    for name in REPEATABLE:
        assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["zerotest.calls"] > first["layers"]["zerotest.distinct"] > 0


def test_nonflat_k3_call_counts(tmp_path):
    # One k = 3 report: hirota_residuals 4x, canonical_connection 2x,
    # null_curve 4x, omega_coefficient_forms 16x; 56 zero tests of 43
    # distinct expressions.
    problem = {"id": "k3", "kind": "web", "k": 3, "w": workloads.nonflat_w(3)}
    layers = traced([problem], tmp_path, "k3")["layers"]
    assert layers["webs.hirota_residuals.calls"] == 4
    assert layers["webs.canonical_connection.calls"] == 2
    assert layers["webs.null_curve.calls"] == 4
    assert layers["webs.omega_coefficient_forms.calls"] == 16
    assert (layers["zerotest.calls"], layers["zerotest.distinct"]) == (56, 43)


def test_workloads_are_seeded():
    sizes = {name: len(workloads.problems_for(name, 3, ROOT)) for name in workloads.WORKLOADS}
    assert sizes == {"ode-ladder": 21, "web-ladder": 39, "mixed-batch": 49 * workloads.MIXED_REPEATS}
    for name in workloads.WORKLOADS:
        assert workloads.problems_for(name, 3, ROOT) == workloads.problems_for(name, 3, ROOT)
        assert workloads.problems_for(name, 3, ROOT) != workloads.problems_for(name, 4, ROOT)
    ids = [p["id"] for p in workloads.web_ladder(3)]
    assert len(ids) == len(set(ids))


def test_checks_reject_wrong_outcomes(tmp_path):
    problems = workloads.problems_for("mixed-batch", 5, ROOT)[:49]
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    golden = (ROOT / checks.GOLDEN_REPORT).read_text(encoding="utf-8")
    report = traced(problems, tmp_path, "m")["report"]
    assert checks.check_report(problems, report, pins, golden) == {}

    random_web = next(n for n, p in enumerate(problems) if p.get("tag") == "random")
    report["reports"][random_web]["verdicts"]["hirota"] = True
    report["reports"][0]["derived"]["gamma_k"] = "-3/1"
    abstract = next(n for n, p in enumerate(problems) if p["id"].startswith("ode/abstract"))
    report["reports"][abstract]["residuals"][0]["verdict"] = "indeterminate"
    del report["reports"][-1]
    failed = checks.check_report(problems, report, pins, golden)
    assert set(failed) == {0, 1, 2, 3, 4, random_web, abstract, len(problems) - 1}


def test_known_defect_expectation_holds():
    # The nonflat k = 5 rung is expected not flat.  Flatness needs
    # d/dx_i (w_xj / w_xl) = 0 for i outside {j, l}; check one such
    # derivative exactly at x_i = (i - 2)/7.
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x0:6")
    w = sympy.exp(sum(x[1:])) + sympy.exp(x[0] + 51 * x[1] + 21 * x[2] + 11 * x[3] + 6 * x[4] + 3 * x[5])
    assert sympy.sympify(workloads.nonflat_w(5).replace("^", "**"), locals={f"x{i}": x[i] for i in range(6)}) == w
    d = sympy.diff(sympy.diff(w, x[1]) / sympy.diff(w, x[2]), x[3])
    value = float(d.subs({x[i]: sympy.Rational(i - 2, 7) for i in range(6)}))
    assert abs(value - 3.199) < 1e-3
    assert checks.is_known("web/nonflat/k5", "wrong verdicts.flat")


def test_host_speed_scaling_undoes_a_slow_spell():
    # One second of work at the reference cost, run steadily, and with its
    # second half at twice the cost (so twice the wall time), both give
    # one second.
    ref = hostspeed.REFERENCE_COST_S
    steady_at = [0.005 * i for i in range(1, 200)]
    assert hostspeed.seconds(0.0, 1.0, steady_at, [ref] * len(steady_at)) == pytest.approx(1.0)
    slow_at = [t for t in steady_at if t < 0.5] + [0.5 + 2 * (t - 0.5) for t in steady_at if t >= 0.5]
    slow_cost = [ref if t < 0.5 else 2 * ref for t in slow_at]
    assert hostspeed.seconds(0.0, 1.5, slow_at, slow_cost) == pytest.approx(1.0, rel=0.02)
    with pytest.raises(ValueError):
        hostspeed.seconds(0.0, 0.001, [], [])


def test_only_the_known_reason_is_excused():
    assert not checks.is_known("web/nonflat/k5", "wrong verdicts.flat, verdicts.hirota")
    assert not checks.is_known("web/nonflat/k5", "wrong status")
    assert not checks.is_known("web/nonflat/k5", "missing from the report")
    assert not checks.is_known("web/nonflat/k4", "wrong verdicts.flat")
