"""One cold paraweb process, started by run.py for every measured batch.

Usage (run.py builds the arguments):

    python3 bench/child.py <launch monotonic time> <job json>

The job names the source tree, the input and output files, and where to
write this process's own measurements.  Set-up runs from the parent's
launch stamp until ``paraweb.cli`` is imported, less the time taken to
gauge the host's speed before it: ``setup_wall_s`` is its wall time and
``setup_s`` that time scaled to the reference host speed of
hostspeed.py.  The batch is ``paraweb.cli.main(["analyze", input,
"--out", output])``: ``wall_s`` is its wall time, and ``batch_s`` that
time scaled, as sampled by ``hostspeed.Probe`` while it runs.
A job with ``"trace": true`` wraps the modules first (see tracer.py).
"""

import sys
import time

LAUNCHED = float(sys.argv[1])
JOB_ARG = sys.argv[2]
GAUGE_START = time.monotonic()

import hostspeed  # noqa: E402  (time, array and signal only: paraweb imports none of them)

SETUP_COST = hostspeed.burst_cost()
GAUGE_S = time.monotonic() - GAUGE_START

import json  # noqa: E402
import os  # noqa: E402

JOB = json.loads(JOB_ARG)
sys.path.insert(0, JOB["src"])

import paraweb.cli  # noqa: E402

SETUP_WALL_S = time.monotonic() - LAUNCHED - GAUGE_S


def main() -> int:
    src = os.path.realpath(JOB["src"])
    if not os.path.realpath(paraweb.cli.__file__).startswith(src + os.sep):
        print(f"paraweb was imported from {paraweb.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {
        "setup_wall_s": SETUP_WALL_S,
        "setup_s": SETUP_WALL_S * hostspeed.REFERENCE_COST_S / SETUP_COST,
    }
    if JOB.get("input") is not None:
        result.update(run_batch())
    with open(JOB["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run_batch() -> dict:
    import resource

    argv = ["analyze", JOB["input"], "--out", JOB["output"]]
    tracer = None
    if JOB.get("trace"):
        import paraweb.expr as expr
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.paraweb_modules())
        intern_start, diff_start = tracer.intern_size(), len(expr._DIFF_CACHE)
    probe = hostspeed.Probe()
    probe.start()
    t0 = time.monotonic()
    try:
        code = paraweb.cli.main(argv)
    finally:
        t1 = time.monotonic()
        probe.stop()
    out = {
        "wall_s": t1 - t0,
        "batch_s": hostspeed.seconds(t0, t1, probe.at, probe.cost),
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"], out["rows"] = tracer.batch_metrics(
            intern_start, tracer.intern_size(), len(expr._DIFF_CACHE) - diff_start
        )
        tracer.write_spans(JOB["spans"])
    return out


if __name__ == "__main__":
    raise SystemExit(main())
