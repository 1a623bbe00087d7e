"""The paraweb benchmark: time the CLI on generated problem batches.

    python3 bench/run.py --workload ode-ladder --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seconds 40

Each measured batch is a fresh interpreter (bench/child.py) that imports
``paraweb.cli`` and calls ``main(["analyze", input, "--out", report])``,
because the expression caches are process-global: a warm process would
measure a different program from the one users run.  Batches repeat,
one at a time, while another fits in ``--seconds``.  ``batch_s`` is the
least of the batches' wall times, each scaled to a reference host speed
as sampled inside its process (hostspeed.py); ``setup_s``, scaled the
same way, and the other figures are medians.
Every report is checked (checks.py).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Scratch files go to
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 2  # launches that only import paraweb.cli, before each batch
CHILD_TIMEOUT_S = 170
# Counts shown in the per-problem table of a traced run.
ROW_COUNTS = ("zerotest.calls", "zerotest.distinct", "webs.hirota_residuals.calls",
              "webs.canonical_connection.calls", "webs.null_curve.calls",
              "webs.omega_coefficient_forms.calls")



class BenchError(RuntimeError):
    pass


class Clock:
    """The measuring window of one run: ``seconds`` from its creation.

    A batch is started only while one more, as long as the median of those
    timed so far, would end inside the window, so that a run with long
    batches ends near ``seconds`` rather than up to a batch later.  The
    first batch always runs.
    """

    def __init__(self, seconds: float):
        self.started = time.monotonic()
        self.seconds = seconds
        self.costs: list[float] = []

    def left(self) -> float:
        return self.seconds - (time.monotonic() - self.started)

    def another_fits(self) -> bool:
        return not self.costs or statistics.median(self.costs) <= self.left()

    def timed(self, step):
        t0 = time.monotonic()
        out = step()
        self.costs.append(time.monotonic() - t0)
        return out


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for the "end_to_end" or "per_layer" metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def launch(job: dict) -> dict:
    """Run bench/child.py for ``job`` in a new interpreter; its measurements."""
    Path(job["result"]).unlink(missing_ok=True)
    args = [sys.executable, str(HERE / "child.py"), repr(time.monotonic()), json.dumps(job)]
    proc = subprocess.run(args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not Path(job["result"]).exists():
        tail = proc.stderr.decode(errors="replace")[-2000:]
        raise BenchError(f"child exited with {proc.returncode}:\n{tail}")
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


class Run:
    """One workload at one seed: its inputs, scratch files and tallies."""

    def __init__(self, name: str, seed: int):
        self.problems = workloads.problems_for(name, seed, ROOT)
        self.want_code = workloads.expected_exit_code(self.problems)
        self.pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
        self.golden = (ROOT / checks.GOLDEN_REPORT).read_text(encoding="utf-8")
        self.work = ROOT / ".bench_work" / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.input = self.work / "input.json"
        self.input.write_text(json.dumps(workloads.document(self.problems)), encoding="utf-8")
        self.job = {"src": str(ROOT / "src"), "result": str(self.work / "child.json")}
        self.attempted = 0
        self.failed = 0
        self.failures: dict[int, str] = {}
        self.notes: set[str] = set()
        self.unexpected = 0

    def setup_probe(self) -> dict:
        return launch(self.job)

    def batch(self, trace: bool) -> dict:
        report_path = self.work / "report.json"
        job = dict(self.job, input=str(self.input), output=str(report_path), trace=trace,
                   spans=str(self.work / "spans.jsonl"))
        out = launch(job)
        out["report_bytes"] = report_path.stat().st_size
        report = json.loads(report_path.read_text(encoding="utf-8"))
        failures = checks.check_report(self.problems, report, self.pins, self.golden)
        if out["exit_code"] != self.want_code:
            self.notes.add(f"  exit code {out['exit_code']}, expected {self.want_code}")
            self.unexpected += 1
        self.attempted += len(self.problems)
        for n, reason in failures.items():
            self.failures[n] = reason
            if not checks.is_known(self.problems[n]["id"], reason):
                self.unexpected += 1
        self.failed += len(failures)
        return out

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        return {
            "correct": self.unexpected == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }

    def describe_failures(self) -> list[str]:
        return sorted(self.notes) + [
            f"  failed: {self.problems[n]['id']}: {reason}"
            + (" (known defect)" if checks.is_known(self.problems[n]["id"], reason) else "")
            for n, reason in sorted(self.failures.items())]


def measure(name: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """End-to-end metrics of untraced batches."""
    run = Run(name, seed)
    run.setup_probe()  # compiles bytecode; not measured
    clock = Clock(seconds)
    setups, batches = [], []
    # Set-up probes are spread over the run, between batches, so that one
    # slow spell of the machine does not decide setup_s; the time that is
    # too short for another batch goes to set-up probes as well.
    while True:
        setups += [run.setup_probe() for _ in range(SETUP_PROBES)]
        if not clock.another_fits():
            break
        batches.append(clock.timed(lambda: run.batch(trace=False)))
    while clock.left() > 0:
        setups.append(run.setup_probe())
    setups += batches
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        # Co-tenants of the host only ever slow a batch down, also after
        # scaling, so the least disturbed batch is the steadiest estimate.
        "batch_s": min(b["batch_s"] for b in batches),
        "report_bytes": statistics.median(b["report_bytes"] for b in batches),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
        "correct_share": 1.0 - run.failed / run.attempted,
    }
    lines = [f"{name} seed {seed}: {len(batches)} batches of {len(run.problems)} problems, "
             f"{len(setups)} launches"]
    end_to_end = units("end_to_end")
    lines += [f"  {k} = {v:.6g} {end_to_end[k]}" for k, v in metrics.items()]
    lines.append("  batch_s of each batch: " + " ".join(f"{b['batch_s']:.3f}" for b in batches))
    lines.append("  wall time of each batch (s): " + " ".join(f"{b['wall_s']:.3f}" for b in batches))
    lines.append(f"  median wall time of set-up: {statistics.median(s['setup_wall_s'] for s in setups):.6g} s")
    lines.append(f"  failed_share = {run.failed / run.attempted:.6g} ratio")
    lines += run.describe_failures()
    return run.result(metrics, end_to_end), lines


def measure_traced(name: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """Per-layer metrics: traced batches alternating with untraced ones."""
    run = Run(name, seed)
    run.setup_probe()
    clock = Clock(seconds)
    plain, traced = [], []

    def pair():
        plain.append(run.batch(trace=False))
        traced.append(run.batch(trace=True))

    while clock.another_fits():
        clock.timed(pair)
    metrics = {}
    for key in traced[0]["layers"]:
        metrics[key] = statistics.median(t["layers"][key] for t in traced)
    untraced_s = min(b["batch_s"] for b in plain)
    metrics["trace.overhead_share"] = min(t["batch_s"] for t in traced) / untraced_s - 1.0
    rows = traced[-1]["rows"]
    with open(run.work / "problems.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(dict(row, id=run.problems[row["problem"]]["id"])) + "\n")
    lines = [f"{name} seed {seed}: {len(traced)} traced and {len(plain)} untraced batches; "
             f"spans and per-problem rows in {run.work.relative_to(ROOT)}/"]
    lines.append(f"  {'problem':34} {'wall_s':>8}  inclusive times (s) and call counts")
    for row in rows:
        m = row["metrics"]
        parts = [f"{k}={m[k]:.3f}" for k in tracing.TIMED if m[k] >= 0.0005]
        parts += [f"{k}={m[k]}" for k in ROW_COUNTS if m[k]]
        lines.append(f"  {run.problems[row['problem']]['id']:34} {row['wall_s']:8.3f}  {' '.join(parts)}")
    lines += [f"  {k} = {v:.6g}" for k, v in sorted(metrics.items())]
    lines += run.describe_failures()
    return run.result(metrics, units("per_layer")), lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "paraweb" / "cli.py").is_file():
        print(f"error: no paraweb source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    measure_one = measure_traced if args.trace else measure
    results = {}
    try:
        for name in names:
            results[name], lines = measure_one(name, args.seed, args.seconds)
            print("\n".join(lines), flush=True)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
