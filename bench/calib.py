"""Host-speed calibration of the timed sections.

A shared host runs the same pure-Python code at speeds up to ~40 % apart
from one few seconds to the next (the other tenants of its cores come and
go), so raw wall times of identical runs spread wider than any bound a
regression gate can use.  The benchmark therefore times a fixed kernel of
its own before and after every timed section and, while a section runs,
every ``PERIOD_S`` from a ``SIGALRM`` handler.  The section's wall time,
less the time spent in the handler, is scaled by ``REF_S`` over the
time-weighted mean of those kernel times: the figure is the section's wall
time on a host that runs the kernel in ``REF_S`` seconds.

The kernel does what the library's hot paths do (scalar float arithmetic,
``math`` calls, Python function calls and list appends) and touches no
library code, so a change to the library moves the scaled time exactly as
it moves the raw one.  Raw wall times are printed beside the scaled ones.
"""

import math
import signal
import statistics
import time

# kernel seconds on the reference host (the median on a 2-core share of an
# Intel Xeon, Python 3.11); only scales the figures, never their ratios
REF_S = 1.0e-3
REPS = 3
ITERS = 4000
PERIOD_S = 0.1


def _step(x, acc):
    return acc + math.sin(x) * math.exp(-x) + math.sqrt(x) / (1.0 + x * x)


def kernel():
    acc = 0.0
    trail = []
    for i in range(1, ITERS + 1):
        acc = _step(i * 1e-3, acc)
        trail.append(acc)
    return trail[-1]


def sample():
    """Median of ``REPS`` kernel timings, in seconds."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times sections one after another, each scaled to the reference host
    speed.  ``probe=False`` keeps the handler out (the traced run, whose
    spans would otherwise include it) and scales by the kernel times
    before and after the section alone."""

    def __init__(self, probe=True):
        self.probe = probe
        for _ in range(REPS):
            kernel()  # let the interpreter specialise it
        self._before = sample()
        self._during = []
        self._spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._during.append(sample())
        self._spent += time.perf_counter() - t0

    def measure(self, fn):
        """Run ``fn()``; returns (its result, scaled s, raw s)."""
        self._during = []
        self._spent = 0.0
        if self.probe:
            old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            dt = time.perf_counter() - t0
            if self.probe:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, old)
        raw = dt - self._spent
        after = sample()
        # trapezoid weights over equally spaced probes
        cal = ((0.5 * (self._before + after) + sum(self._during))
               / (len(self._during) + 1))
        self._before = after
        return result, raw * REF_S / cal, raw
