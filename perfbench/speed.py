"""Host-speed probes, to read timings at one reference speed.

The host this benchmark runs on slows its guest's CPUs by up to 2x, in
stretches of a second to a minute (README.md, "Noise").  A probe is a fixed
piece of pure-Python work; its duration says how slow the CPU is at that
moment.  ``Probes`` runs one every ``INTERVAL`` seconds from a SIGALRM
handler while a pass runs, and ``reference_seconds`` divides each stretch of
wall time between two probes by the slowdown the probes around it measured:
the result is the time the stretch would have taken at ``REFERENCE_PROBE_S``
per probe.  ``burst`` measures the speed around a set-up.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PROBE_ITERATIONS = 1500
# The probe's duration on a quiet core of the 2-vCPU host the benchmark was
# written on (Python 3.11), so that reference seconds read close to a quiet
# host's seconds there.
REFERENCE_PROBE_S = 0.0004
INTERVAL = 0.05
# each stretch takes the median of the probes this many places either side,
# so that one probe hit by an interrupt moves nothing
WINDOW = 2
BURST = 5


def probe() -> float:
    """Seconds one probe takes now."""
    start = perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(PROBE_ITERATIONS):
        table[i & 127] = table.get(i & 127, 0) + i * i % 7919
        total += (i * 2654435761) % 1000003
    return perf_counter() - start


def burst() -> list[float]:
    """Durations of ``BURST`` probes run back to back."""
    return [probe() for _ in range(BURST)]


class Probes:
    """Probes at a fixed interval between ``start`` and ``stop``; ``spans``
    holds (start, end) of each, and the first and last run at once."""

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []

    def _run(self, *_) -> None:
        start = perf_counter()
        probe()
        self.spans.append((start, perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._run)
        self._run()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._run()

    def probe_time(self, begin: float, end: float) -> float:
        """Seconds the probes took inside [begin, end]."""
        return sum(b - a for a, b in self.spans if a >= begin and b <= end)

    def reference_seconds(self, begin: float, end: float) -> float:
        """Wall time in [begin, end], probes left out, at the reference speed.

        [begin, end] must lie between the first probe and the last."""
        durations = [b - a for a, b in self.spans]
        total = 0.0
        for k in range(1, len(self.spans)):
            lo, hi = max(self.spans[k - 1][1], begin), min(self.spans[k][0], end)
            if hi > lo:
                around = durations[max(0, k - 1 - WINDOW) : k + WINDOW + 1]
                total += (hi - lo) * REFERENCE_PROBE_S / statistics.median(around)
        return total
