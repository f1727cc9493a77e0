"""Machine-speed meter: converts wall intervals to reference-speed seconds.

On a shared host the same code runs up to twice as fast at one moment as
at another, in stretches of seconds to minutes, so raw wall times of
identical runs spread by 20 % or more.  The meter runs a fixed numpy kernel
(no modlab code) from a SIGALRM timer every ``INTERVAL_S``, in the
benchmark's own thread, and records how long it took.  An interval of wall
time is then reported as

    (wall time - kernel time inside it) x REFERENCE_KERNEL_S / kernel time

using the kernel samples taken around it, i.e. the time the same work would
take on a machine where the kernel runs in ``REFERENCE_KERNEL_S``.  Raw wall
times are kept alongside.  The kernel does the same kind of work as
modlab's hot paths (small matrix products, tanh, log-sum-exp called from
Python), so both slow down together.

Kernel time that lands inside a span is recorded against that span, so
span durations and self times exclude it.
"""

from __future__ import annotations

import bisect
import signal
from array import array
from time import perf_counter

import numpy as np

from spans import Recorder, self_times

INTERVAL_S = 0.05
# Kernel duration that defines one reference-speed second (its median on a
# 2.1 GHz Xeon vCPU; the value only fixes the unit).
REFERENCE_KERNEL_S = 3.7e-4
WINDOW_S = 0.15  # samples within this distance of an interval describe it
SHORT_SPAN_S = 0.01  # shorter spans take the speed at the nearest sample

_RNG = np.random.default_rng(0)
_U = _RNG.standard_normal((16, 8))
_W = _RNG.standard_normal((8, 16))
_X = _RNG.standard_normal(8)


def kernel() -> float:
    start = perf_counter()
    for _ in range(30):
        logits = _W @ np.tanh(_U @ _X)
        shifted = logits - logits.max()
        shifted - np.log(np.exp(shifted).sum())
    return perf_counter() - start


class SpeedMeter:
    """Timer-driven kernel samples: start time, duration, open span."""

    def __init__(self):
        self.times = array("d")
        self.durations = array("d")
        self.rec = None  # Recorder whose open span a sample interrupts
        self.in_span: list = []  # (recorder, span index, duration)
        self._smoothed = None  # factor around each sample, built after the meter stops

    def __enter__(self):
        for _ in range(20):
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        start = perf_counter()
        duration = kernel()
        self.times.append(start)
        self.durations.append(duration)
        rec = self.rec
        if rec is None:
            return
        idx = rec.open
        if idx >= 0 and (idx >= len(rec.starts) or rec.ends[idx] != 0.0):
            # Interrupted inside begin() before the start was taken, or inside
            # end() after the end was: the time belongs to the enclosing span.
            idx = rec.parents[idx]
        if idx >= 0:
            self.in_span.append((rec, idx, duration))

    def kernel_time(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return sum(self.durations[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi <= lo:  # no sample near: use the nearest one
            lo = max(0, min(lo, len(self.times) - 1))
            hi = lo + 1
        durations = self.durations[lo:hi]
        return REFERENCE_KERNEL_S * sum(1.0 / d for d in durations) / len(durations)

    def reference_seconds(self, start: float, end: float) -> float:
        return (end - start - self.kernel_time(start, end)) * self.factor(start, end)

    def factor_at(self, t: float) -> float:
        """factor() around the sample nearest to t (call after the meter stops)."""
        if self._smoothed is None:
            self._smoothed = [self.factor(x, x) for x in self.times]
        i = bisect.bisect_left(self.times, t)
        if i == len(self.times) or (i > 0 and t - self.times[i - 1] < self.times[i] - t):
            i -= 1
        return self._smoothed[i]

    def span_times(self, rec: Recorder):
        """Reference-speed duration and self time of every span of rec,
        without the kernel time that landed inside it."""
        total, own = {}, {}
        for r, idx, duration in self.in_span:
            if r is not rec:
                continue
            own[idx] = own.get(idx, 0.0) + duration
            while idx >= 0:
                total[idx] = total.get(idx, 0.0) + duration
                idx = rec.parents[idx]
        durations, selfs = [], []
        for i, own_time in enumerate(self_times(rec)):
            start, end = rec.starts[i], rec.ends[i]
            f = (self.factor_at(start) if end - start < SHORT_SPAN_S
                 else self.factor(start, end))
            durations.append((end - start - total.get(i, 0.0)) * f)
            selfs.append((own_time - own.get(i, 0.0)) * f)
        return durations, selfs
