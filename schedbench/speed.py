"""Interpreter-speed samples, to take host interference out of round times.

The machines this benchmark runs on share their cores with other tenants.
The same fixed pure-Python loop then runs at speeds that differ by up to
2x from one stretch of seconds to the next, so the wall time of a round
of identical work swings by 30% between runs, while the fastest of many
short timings within a run repeats to within a few percent.

``SpeedProbe`` samples the speed while the program runs: an interval timer
interrupts the main thread every ``PERIOD`` seconds and the handler times
a fixed loop.  ``adjusted(a, b)`` converts the wall interval [a, b] into
the time it would have taken at a fixed reference speed, the loop taking
``REFERENCE`` seconds: each stretch between samples is scaled by
``REFERENCE`` over the local loop time (the median of the samples around
it).  ``REFERENCE`` is the loop's time in the least disturbed stretches of
a 2-vCPU x86-64 VM under Python 3.11, so there adjusted times read as the
wall times of an undisturbed machine.  A fixed reference rather than
each run's fastest stretch, because how fast the fastest stretch is
varies from run to run by 10%.  The handler costs about 0.5% of the run,
the same for every version of the program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD = 0.02  # seconds between samples
LOOP = 2000  # iterations of the timed loop (about 0.1 ms)
WINDOW = 25  # samples on each side in the local speed estimate (1 s)
REFERENCE = 90e-6  # seconds per loop at the reference speed


class SpeedProbe:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.probes: list[float] = []
        self._local: list[float] | None = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(LOOP):
            x += i & 7
        t1 = time.perf_counter()
        self.times.append(t1)
        self.probes.append(t1 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def adjusted(self, a: float, b: float) -> float:
        """Wall interval [a, b] at the reference speed."""
        if self._local is None or len(self._local) != len(self.probes):
            self._local = [statistics.median(self.probes[max(0, k - WINDOW):k + WINDOW + 1])
                           for k in range(len(self.probes))]
        local = self._local
        if not local:
            return b - a
        total = 0.0
        k = bisect.bisect_left(self.times, a)
        start = a
        while start < b:
            end = min(b, self.times[k]) if k < len(self.times) else b
            speed = local[min(k, len(local) - 1)]
            total += (end - start) * REFERENCE / speed
            start = end
            k += 1
        return total
