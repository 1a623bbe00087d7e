"""Command line front-end: analyze problem files, emit JSON reports."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .report import InputError, analyze_batch, write_report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="paraweb",
        description="Analyze ODE point invariants and Veronese webs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    an = sub.add_parser("analyze", help="analyze a JSON problem file")
    an.add_argument("file", help="input JSON ({'problems': [...]} or one problem object)")
    an.add_argument("--out", help="write the JSON report here instead of stdout")
    an.add_argument("--seed", type=int, default=None, help="default random seed")
    an.add_argument("--trials", type=int, default=None, help="default zero-test trials")
    an.add_argument("--tolerance", type=float, default=None, help="default float tolerance")
    args = parser.parse_args(argv)

    try:
        document = json.loads(Path(args.file).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError and an integer literal past
        # Python's int-to-str digit limit are all ValueErrors
        print(f"error: {args.file} is not valid JSON: {exc}", file=sys.stderr)
        return 1

    defaults = {}
    if args.seed is not None:
        defaults["seed"] = args.seed
    if args.trials is not None:
        defaults["trials"] = args.trials
    if args.tolerance is not None:
        defaults["tolerance"] = args.tolerance

    # Fail before the batch runs rather than lose its work at the end.
    if args.out and not os.access(Path(args.out).absolute().parent, os.W_OK | os.X_OK):
        print(f"error: cannot write {args.out}: directory missing or not writable", file=sys.stderr)
        return 1

    try:
        report, code = analyze_batch(document, defaults)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                write_report(report, fh)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        for line in _summary_lines(report):
            print(line)
    else:
        write_report(report, sys.stdout)
        for line in _summary_lines(report):
            print(line, file=sys.stderr)
    return code


def _summary_lines(report: dict) -> list[str]:
    lines = []
    for idx, entry in enumerate(report.get("reports", [])):
        problem = entry.get("problem")
        if not isinstance(problem, dict):
            problem = {}
        kind = problem.get("kind", "?")
        if entry.get("status") == "error":
            lines.append(f"[{idx}] {kind}: ERROR {entry.get('error')}")
            continue
        if kind == "ode":
            head = f"ode order {problem.get('order')} rhs {problem.get('rhs')!r}"
            tail = entry.get("classification", "")
        else:
            head = f"web k={problem.get('k')} w {problem.get('w')!r}"
            verd = entry.get("verdicts", {})
            tail = "veronese web" if verd.get("hirota") else "not a web"
        residuals = entry.get("residuals", [])
        zero = sum(1 for r in residuals if r["verdict"] == "zero")
        lines.append(f"[{idx}] {head}: {tail} ({zero}/{len(residuals)} residuals zero)")
    return lines


if __name__ == "__main__":
    raise SystemExit(main())
