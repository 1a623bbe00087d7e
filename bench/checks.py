"""Correctness of a written report against what each problem should give.

Expected outcomes come from two places:

* the construction, where it decides the answer: separable webs are
  Veronese webs with every residual zero, and flat when k > 2; the
  two-exponential seeds are webs and not flat; random quadratics with
  cross terms are not webs; the seeded input errors are error entries;
* ``pins.json`` for everything else: status, classification, the verdict
  flags and every residual's name and verdict, recorded at the seed
  commit.  Expression strings are never pinned.

The golden problems of mixed-batch are compared byte for byte with
tests/data/golden_report.json instead.

A problem fails when its entry is missing, has the wrong status, or
disagrees with any expected field.  ``KNOWN_DEFECTS`` lists failures the
seed commit already has, each with its exact reason; such a failure
counts as a failed problem, but does not make the run incorrect.  Any
other reason on the same problem does, so that a new failure is told
apart from the known one.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

GOLDEN_REPORT = "tests/data/golden_report.json"

# Problem id -> the reason check_report gives for its known failure.
KNOWN_DEFECTS = {
    # The engine reports flat: True.  The web is not flat: with
    # w = exp(x1+..+x5) + exp(x0+51*x1+21*x2+11*x3+6*x4+3*x5),
    # d/dx3 (w_x1 / w_x2) at x_i = (i - 2)/7 is 3.199 (checked with sympy,
    # see test_bench.py), and flatness needs it to vanish.
    "web/nonflat/k5": "wrong verdicts.flat",
}


def is_known(problem_id: str, reason: str) -> bool:
    """Whether a failure is the known defect of that problem, and nothing else."""
    return KNOWN_DEFECTS.get(problem_id) == reason


def outcome(entry: dict) -> dict:
    """The parts of a report entry that are pinned: no expression strings."""
    out = {"status": entry.get("status")}
    if out["status"] != "ok":
        return out
    if "classification" in entry:
        out["classification"] = entry["classification"]
    if "verdicts" in entry:
        out["classification"] = entry["derived"]["classification"]
        out["verdicts"] = entry["verdicts"]
    out["residuals"] = [[r["name"], r["verdict"]] for r in entry["residuals"]]
    return out


def constructed(problem: dict) -> dict:
    """The expected fields that the construction of ``problem`` decides."""
    tag = problem.get("tag")
    if tag == "error":
        return {"status": "error"}
    if tag == "separable":
        verdicts = {"hirota": True, "hierarchy": True, "lax": True}
        if problem["k"] > 2:
            verdicts["flat"] = True
        return {"status": "ok", "classification": "veronese web", "verdicts": verdicts,
                "all_residuals_zero": True}
    if tag == "nonflat":
        verdicts = {"hirota": True}
        if problem["k"] > 2:
            verdicts["flat"] = False
        return {"status": "ok", "classification": "veronese web", "verdicts": verdicts}
    if tag == "random":
        return {"status": "ok", "classification": "not a web", "verdicts": {"hirota": False}}
    return {}


def expected(problem: dict, pins: dict) -> dict:
    want = copy.deepcopy(pins.get(problem["id"], {}))
    for key, value in constructed(problem).items():
        if key == "verdicts":
            want.setdefault("verdicts", {}).update(value)
        else:
            want[key] = value
    return want


def mismatches(entry: dict, want: dict) -> list[str]:
    got = outcome(entry)
    bad = []
    for key in ("status", "classification", "residuals"):
        if key in want and got.get(key) != want[key]:
            bad.append(key)
    for name, value in want.get("verdicts", {}).items():
        if got.get("verdicts", {}).get(name) != value:
            bad.append(f"verdicts.{name}")
    if want.get("all_residuals_zero") and any(v != "zero" for _, v in got.get("residuals", [])):
        bad.append("residuals not all zero")
    return bad


def check_report(problems: list[dict], report: dict, pins: dict, golden_text: str | None) -> dict[int, str]:
    """Failures by problem index, each with a short reason."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from paraweb.report import dumps_report  # the one serialiser of reports

    entries = report.get("reports", []) if isinstance(report, dict) else []
    failures: dict[int, str] = {}
    golden_at = [n for n, p in enumerate(problems) if p["id"].startswith("golden/")]
    if golden_at:
        golden_count = len(json.loads(golden_text)["reports"])
        for start in range(0, len(golden_at), golden_count):
            block = golden_at[start:start + golden_count]
            if any(n >= len(entries) for n in block) or \
                    dumps_report({"reports": [entries[n] for n in block]}) != golden_text:
                for n in block:
                    failures[n] = "differs from the golden report"
    for n, problem in enumerate(problems):
        if n in failures or problem["id"].startswith("golden/"):
            continue
        if n >= len(entries):
            failures[n] = "missing from the report"
            continue
        echo = entries[n].get("problem") if isinstance(entries[n], dict) else None
        if not isinstance(echo, dict) or echo.get("kind") != problem["kind"]:
            failures[n] = "entry echoes another problem"
            continue
        bad = mismatches(entries[n], expected(problem, pins))
        if bad:
            failures[n] = "wrong " + ", ".join(bad)
    return failures
