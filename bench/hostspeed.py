"""Host speed, sampled inside each measured process, to take slow spells out of timings.

On a shared host a vCPU runs at two speeds, about 1.8x apart, in spells of
a few seconds to tens of seconds that neither process CPU time nor steal
time shows.  A batch of several seconds therefore takes anything between
its fast and its slow time.  A fixed piece of interpreter work, the
probe, tells the speed of the host at the moment it runs.

``Probe`` runs it every ``PERIOD_S`` from a SIGALRM handler while a batch
runs, and ``seconds`` weighs each interval of the batch by
``REFERENCE_COST_S`` over the probe's cost there: the batch's wall time
as it would be on a host where the probe always costs the reference.
The probe takes 0.7% to 1.2% of the batch, fast host to slow, on every
commit alike.
Set-up is too short for the timer, so ``burst_cost`` runs the probe
back to back once, before it, and its wall time is scaled by that cost.
"""

from __future__ import annotations

import array
import signal
import time

PERIOD_S = 0.005
# Probes per rolling median: one preempted probe must not set the speed
# of its interval.
WINDOW = 9
# About the probe's cost when the host runs fast, on the 2-vCPU virtual
# machine (Python 3.11.7) this benchmark was built on; there the lowest 2%
# of a batch's probes took 35 to 38 us, and the median 53 to 61 us.  A
# fixed reference, rather than one taken from each run, keeps the drift
# of the fastest speed between runs out of the figures.
REFERENCE_COST_S = 35e-6
# Probes run back to back by ``burst_cost``.
BURST = 31


def _work() -> int:
    # Calls, small allocations and a bare loop, in a working set that fits
    # in the first-level cache, so that the probe's cost depends on the
    # host and not on the state the program left the caches and the heap
    # in.  Ints and strs are not tracked by the garbage collector, so the
    # probe does not move the program's collections either.
    n = 0
    for i in range(150):
        n += len(str(i))
    for _ in range(1000):
        pass
    return n


class Probe:
    """Times ``_work`` every ``PERIOD_S`` of wall time between start and stop.

    ``at`` holds when each probe started, on the ``time.monotonic`` clock,
    and ``cost`` how long it took.
    """

    def __init__(self) -> None:
        self.at = array.array("d")
        self.cost = array.array("d")
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.monotonic()
        _work()
        self.cost.append(time.monotonic() - t0)
        self.at.append(t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def seconds(start: float, end: float, at, cost) -> float:
    """Wall time from ``start`` to ``end``, each moment scaled to the reference cost.

    Each probe stands for the interval from its own start to the next
    one's (the first also for the time before it), at the median cost of
    the ``WINDOW`` probes around it.
    """
    n = len(at)
    if n == 0:
        raise ValueError("no probe ran: the batch was shorter than the probe period")
    half = WINDOW // 2
    total = 0.0
    edges = [start] + list(at[1:]) + [end]
    for i in range(n):
        smoothed = _median(cost[max(0, i - half):i + half + 1])
        total += (edges[i + 1] - edges[i]) * REFERENCE_COST_S / smoothed
    return total


def burst_cost() -> float:
    """Median cost of ``BURST`` probes run back to back: the host's speed now.

    For a stretch too short for the timer, such as the set-up of a process.
    """
    costs = []
    for _ in range(BURST):
        t0 = time.monotonic()
        _work()
        costs.append(time.monotonic() - t0)
    return _median(costs)


def _median(values) -> float:
    # Not statistics.median: importing statistics would import fractions
    # and random before paraweb does, and take their cost out of setup_s.
    ordered = sorted(values)
    return ordered[len(ordered) // 2]
