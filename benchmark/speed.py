"""Scaled seconds: wall time corrected for how fast the machine runs right now.

On a shared machine other tenants slow all work, by up to 2x for stretches
of many seconds, which no amount of repetition inside one run averages out.
While a run measures, a SIGALRM timer runs a tiny fixed pure-Python probe
every PERIOD_S seconds. An interval's scaled time is its wall time, less the
time spent in the probe handler, times PROBE_NOMINAL_S over the mean probe
time inside the interval (an interval shorter than MIN_PROBES periods uses
the MIN_PROBES probes around it): the time the interval would have taken had
the machine run at the probe's nominal speed all along.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.005
# probe() on an uncontended core of the reference machine (2-core x86-64
# VM, CPython 3.11); it only fixes the scale of scaled seconds.
PROBE_NOMINAL_S = 1.5e-5
MIN_PROBES = 20  # a shorter interval borrows its neighbours' probes


def probe() -> None:
    table = {}
    for i in range(150):
        table[i] = i + 1
    total = 0
    for value in table.values():
        total += value


class SpeedSampler:
    """Context manager that probes the machine's speed while it is open;
    scaled() converts wall intervals taken meanwhile to scaled seconds."""

    def __init__(self):
        self._starts: list[float] = []  # perf_counter at each probe start
        self._probe_s: list[float] = []
        self._handler_s: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        clock = time.perf_counter
        start = clock()
        probe()
        end = clock()
        self._starts.append(start)
        self._probe_s.append(end - start)
        self._handler_s.append(clock() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Scaled seconds for the wall interval [t0, t1)."""
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        busy = sum(self._handler_s[lo:hi])
        if hi - lo < MIN_PROBES:
            lo = max(0, lo - (MIN_PROBES - (hi - lo)) // 2)
            hi = min(len(self._starts), lo + MIN_PROBES)
            lo = max(0, hi - MIN_PROBES)
        probes = self._probe_s[lo:hi]
        if not probes:
            raise RuntimeError("no speed probe ran; is SIGALRM blocked?")
        return (t1 - t0 - busy) * PROBE_NOMINAL_S * len(probes) / sum(probes)


class WallClock:
    """Unscaled stand-in for SpeedSampler, for traced runs (whose spans must
    not contain probes)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    @staticmethod
    def scaled(t0: float, t1: float) -> float:
        return t1 - t0
