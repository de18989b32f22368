"""Timing on a quick core.

The machine the benchmark runs on slows a core down for seconds at a time,
to about two thirds of its speed, most likely because another tenant shares
the physical core.  A fixed reference loop shows it.  ``Quiet`` reads the
reference between groups of timed work, waits for a quick core before the
next group when the last reading was slow, and says which runs were clean:
quick just before and just after.
"""

from __future__ import annotations

import gc
import os
import time
from fractions import Fraction

REFERENCE_TERMS = 200  # about 0.4 ms of Fraction arithmetic on a quick core
REFERENCE_RUNS = 3  # the reference time is the best of this many runs
# A core is quick while the reference takes at most a factor times its best
# time in the process.  A slowed core takes 1.5 to 2 times.  Back to back,
# on a quick core, the reference takes up to about 1.1 times its best; right
# after an op, whose data has pushed the loop's out of the caches, up to
# about 1.3 times.
START_FACTOR = 1.15
END_FACTOR = 1.4
SETTLE_S = 5.0  # the longest wait for a quick core before a group of ops


def reference_s() -> float:
    """Best time of a fixed loop of Fraction additions, with the garbage
    collector held off so that it does not collect what the op left."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(REFERENCE_RUNS):
            start = time.perf_counter()
            acc = Fraction(0)
            for i in range(1, REFERENCE_TERMS):
                acc += Fraction(1, i)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


class Quiet:
    """Starts each group of ops on a core that runs at full speed.

    The machine slows a core down for seconds at a time, and the reference
    loop shows it.  The process is pinned to one core, which the children of
    cli_oneshot inherit, so the reference and the ops run on the same
    core."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.best = float("inf")
        self.cpu = self.cpus[0]
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            best = min(reference_s() for _ in range(10))
            if best < self.best:
                self.best, self.cpu = best, cpu
        os.sched_setaffinity(0, {self.cpu})
        self.slow_readings = 0
        self.deadline = float("inf")

    def _quick(self, factor: float) -> bool:
        seconds = reference_s()
        self.best = min(self.best, seconds)
        return seconds <= factor * self.best

    def settle(self) -> bool:
        """Move to a quick core, trying each in turn, for up to SETTLE_S and
        not past the deadline; returns whether one was found."""
        deadline = min(self.deadline, time.perf_counter() + SETTLE_S)
        while True:
            for cpu in [self.cpu] + [c for c in self.cpus if c != self.cpu]:
                os.sched_setaffinity(0, {cpu})
                # the first reading after an op or a move warms the caches
                if self._quick(START_FACTOR) or self._quick(START_FACTOR):
                    self.cpu = cpu
                    return True
                if time.perf_counter() >= deadline:
                    os.sched_setaffinity(0, {self.cpu})
                    return False

    def run(self, fn) -> bool:
        """Call ``fn`` on a quick core; returns whether the run was clean:
        the core was quick just before and just after it."""
        quick_before = self.settle()
        fn()
        quick_after = self._quick(END_FACTOR)
        self.slow_readings += not quick_after
        return quick_before and quick_after

    def release(self) -> None:
        """Unpin the process, so that its children may run on any core."""
        os.sched_setaffinity(0, self.cpus)
