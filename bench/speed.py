"""Times scaled to a nominal machine speed.

The machine this was tuned on is shared, and its speed drifts by tens of
percent within seconds to minutes (a fixed loop ran 6.0 to 8.0 million
iterations in consecutive 2-second windows).  So the speed is probed with a
fixed kernel, 400 multiply-adds of large `Fraction`s: snul's kind of work,
but no snul code.  The kernel runs BETWEEN times between timed intervals,
and inside an interval on a timer signal every INTERVAL_S, so that a job of
seconds is probed throughout and not only at its ends.  An interval's raw
time leaves out the probes inside it, and its scaled time is

    raw * NOMINAL_S / median kernel time,

the median taken over the probes inside the interval and those right before
and after it.  In one process running the same derive job for 90 s, the
interquartile range of a job's times was 0.2 to 0.3 of the median raw,
0.09 to 0.14 when scaled by probes at the ends alone, and 0.06 to 0.07 with
the probes inside as well.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# kernel time at the nominal speed, about that of the machine this was tuned on
NOMINAL_S = 0.003
INTERVAL_S = 0.1
BETWEEN = 8
VALUES = [Fraction(n, d) for n, d in zip(
    [(7919 ** k) % (2 ** 61 - 1) + 1 for k in range(1, 41)],
    [(104729 ** k) % (2 ** 31 - 1) + 1 for k in range(1, 41)])]


def kernel():
    """Start and end time of one run of the fixed kernel."""
    t0 = time.perf_counter()
    for a in VALUES[:10]:
        acc = Fraction(0)
        for b in VALUES:
            acc += a * b
    return t0, time.perf_counter()


class Clock:
    """Times intervals of one process.  Owns SIGALRM while it exists."""

    def __init__(self):
        self._inside: list[tuple[float, float]] = []
        signal.signal(signal.SIGALRM, self._on_timer)
        self._before = self._between()

    def _on_timer(self, signum, frame):
        self._inside.append(kernel())

    def _between(self):
        return [end - start for start, end in (kernel() for _ in range(BETWEEN))]

    def time(self, fn, *args):
        """Call fn(*args), probing inside it; returns its result, raw seconds
        and scaled seconds."""
        self._inside = []
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
        # a probe that starts after t1 is not part of the interval
        inside = [end - start for start, end in self._inside if start < t1]
        raw = t1 - t0 - sum(inside)
        return out, raw, self.scale(raw, inside)

    def scale(self, raw, inside=()):
        """Scaled seconds of an interval of `raw` seconds that ended just now
        and began after the last call of time() or scale()."""
        after = self._between()
        probes = self._before + list(inside) + after
        self._before = after
        return raw * NOMINAL_S / statistics.median(probes)
