"""Host-speed sampler: scales timings to a reference host speed.

The benchmark runs on cores shared with other tenants, whose load slows
every instruction (cache and memory contention, frequency) by up to 80 %
within minutes.  CPU time slows with wall time, so neither
shows it.  While a pipeline runs, a SIGALRM handler times a fixed kernel
of interpreter and small-array numpy work, like the pipeline's own, every
PERIOD_S seconds.  The mean kernel time over the pipeline, divided by
REFERENCE_S, is the host's slowdown during it; a timing divided by that
slowdown reads in seconds at the reference speed.  The kernel's own time
is taken out of every timed interval first.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.02
# About the kernel's mean time on an idle 2-core Intel Xeon VM, Python 3.11,
# numpy 2.4.  A constant, so that scaled timings compare across runs.
REFERENCE_S = 0.3e-3

_A = np.random.default_rng(0).random((20, 3))


def kernel() -> float:
    s = 0.0
    for i in range(40):
        x = _A * (i % 5 + 1)
        s += float(np.minimum(x.sum(axis=0), 2.0).sum())
        for j in range(20):
            s += j * 0.5
    return s


class HostSpeed:
    """Context manager sampling the kernel every PERIOD_S seconds."""

    def __init__(self):
        self.running = False
        self.starts: list[float] = []
        self.times: list[float] = []
        self.spent: list[float] = [0.0]  # kernel seconds before each sample's end

    def sample(self, *_):
        if self.running:  # a tick that lands inside a sample is dropped
            return
        self.running = True
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        self.running = False
        self.starts.append(t0)
        self.times.append(dt)
        self.spent.append(self.spent[-1] + dt)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.sample()

    def busy(self, a: float, b: float) -> float:
        """Kernel seconds spent inside the interval [a, b]."""
        return (self.spent[bisect.bisect_left(self.starts, b)]
                - self.spent[bisect.bisect_left(self.starts, a)])

    def slowdown(self, a: float, b: float) -> float:
        """Mean kernel time over [a, b] (at least the nearest sample before
        it) over REFERENCE_S.  The mean, as timer ticks sample the interval
        evenly and the interval's length is a sum over it."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        if lo == hi:
            lo, hi = max(0, lo - 1), max(1, hi)
        return statistics.fmean(self.times[lo:hi]) / REFERENCE_S
