"""Machine speed, sampled between operations, to scale times to one speed.

On a shared machine the speed of a core drifts by tens of percent over
seconds, and the drift is shared by everything running on that core.  A
fixed piece of reference work (exact ``Fraction`` arithmetic into a dict,
like the library's inner loops) is timed between operations; an
operation's time is scaled by ``REFERENCE_S`` over the mean time of the
samples just before, during and just after it.  A scaled time reads as the time the operation would
take on a core that runs the reference work in ``REFERENCE_S`` seconds.
The process and its children are pinned to one core, so that the samples
and the work they scale run on the same core.

Operations that run in this process can take many seconds, longer than
the drift keeps still, so while they run a timer signal takes a sample
every ``SAMPLE_GAP_S``; its time is subtracted from the operation's.
Child processes are only bracketed: a sample in the parent while a child
runs would take the child's core away from it.
"""

from __future__ import annotations

import bisect
import os
import signal
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.012  # nominal time of one reference sample
SAMPLE_GAP_S = 0.2  # operations shorter than this share samples

ZERO = Fraction(0)


def pin_to_one_core() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference_work() -> dict:
    acc: dict[int, Fraction] = {}
    for i in range(1, 1500):
        k = i % 13
        acc[k] = acc.get(k, ZERO) + Fraction(1, i % 97 + 1) * Fraction(i % 5 - 2)
    return acc


class Speedometer:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        reference_work()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.durations.append(end - start)

    def sample_if_due(self) -> None:
        if not self.ends or perf_counter() - self.ends[-1] >= SAMPLE_GAP_S:
            self.sample()

    @contextmanager
    def ticking(self):
        """Take a sample every ``SAMPLE_GAP_S`` while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_GAP_S, SAMPLE_GAP_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float) -> float:
        """``end - start``, less the samples taken inside it, scaled by the
        mean of those samples and the ones just before and just after the
        interval (both must exist)."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        inside = self.durations[before + 1:after]
        around = self.durations[before:after + 1]
        speed = sum(around) / len(around)
        return (end - start - sum(inside)) * REFERENCE_S / speed
