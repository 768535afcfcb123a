"""Host speed, sampled while a workload runs.

The benchmark shares its CPUs with other machines' work, and their load
changes the speed of every Python instruction by a quarter or more within
a minute.  To measure the library rather than the neighbours, a fixed
reference loop that does not use ``aql`` runs every INTERVAL_S seconds from
a SIGALRM handler, interleaved with the workload in the same thread.  Its
mean duration over REFERENCE_MS, while something was timed, is the host's
slowdown over that stretch; dividing the measured time by it gives the
time on a host on which the loop takes REFERENCE_MS ("reference
seconds").  The handler's own time is counted in ``busy`` so that callers
can take it out of what they time.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import itertools
import math
import signal
import time

INTERVAL_S = 0.05
# Times shorter than this are scaled by the samples around them.
WINDOW_S = 1.0
# About the loop's duration in the quietest runs seen on a 2-vCPU Xeon
# (Sapphire Rapids) KVM guest with CPython 3.11; it only sets the scale.
REFERENCE_MS = 2.6


def reference_work() -> int:
    """Allocation, tuple hashing, dict and small-int traffic, and a sort:
    the same kind of work as the library's, so it slows the same way."""
    table = {}
    acc = 0
    for i in range(3000):
        key = (i, i * 3 % 17, -i)
        table[key] = i
        acc += sum(key) + len(table)
    ordered = sorted(table, key=lambda k: (k[1], -k[0]))
    return acc + ordered[0][0]


def timed_reference_work() -> float:
    """Seconds one reference loop takes, with the garbage collector off:
    a collection would scan the workload's heap, not the loop's."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Context manager that samples the reference loop while it is open."""

    def __init__(self):
        self.times: list = []  # perf_counter() at each sample
        self.samples: list = []  # the loop's duration, seconds
        self.busy = 0.0
        self._previous = None
        self._prefix = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.times.append(t0)
        self.samples.append(timed_reference_work())
        self.busy += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample(None, None)
        self._prefix = list(itertools.accumulate(self.samples, initial=0.0))

    @contextlib.contextmanager
    def paused(self):
        """Hold samples back, e.g. while a child process runs; one that falls
        due meanwhile runs on leaving."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def slowdown(self, start: float = -math.inf, end: float = math.inf) -> float:
        """How many times slower than on the reference host the loop ran,
        over the samples taken between `start` and `end` (perf_counter
        times, widened to WINDOW_S) or over the whole run.  Call after
        the context has closed."""
        if end - start < WINDOW_S:
            middle = (start + end) / 2
            start, end = middle - WINDOW_S / 2, middle + WINDOW_S / 2
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi == lo:
            lo, hi = 0, len(self.samples)
        mean = (self._prefix[hi] - self._prefix[lo]) / (hi - lo)
        return mean * 1e3 / REFERENCE_MS
