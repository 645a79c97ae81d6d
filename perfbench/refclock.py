"""Reference seconds: wall times rescaled by the host's speed at the time.

The host this benchmark was written on is a shared 2-core VM whose speed
drifts. The same `injectivity` job took 1.3 s in one minute and 2.2 s a few
minutes later, with no other process of ours running and CPU time equal to
wall time. Over five 40-s `hw_probe` runs, the interquartile range of the
median job time was 41% of its median.

A fixed calibration kernel tracks that drift. It is stdlib only and runs no
avw code, so a change to avw cannot move it. The kernel is timed about once
a second between jobs, and once before and once after each batch of set-up
measurements. A measured interval's reference time is

    wall seconds * CAL_REF_S / (median of the calibrations that ended within
                                CAL_WINDOW_S of the interval)

The median ignores a single calibration caught by a burst of contention. The
result is the time the interval would take on a host where the kernel takes
``CAL_REF_S``. That is about its time on an unloaded core of the host named
above, with Python 3.11. Over a later set of five runs timed this way, the
same spread was 6%. The rescaling does not remove everything: a burst of
contention can slow avw's larger working set more than the small kernel.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

CAL_EVERY_S = 1.0
CAL_REF_S = 0.035
CAL_WINDOW_S = 3.0


def calibration_kernel() -> None:
    """Fixed work like avw's inner loops: tuple-keyed dicts of exact
    rationals, and big-integer multiply and floor-divide as in Bareiss."""
    acc = {}
    for i in range(1, 6000):
        key = (i % 7, i % 11, "abc"[i % 3])
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 17 - 8, i % 5 + 1)
    big, total = 3 ** 600, 0
    for i in range(1, 30000):
        total += (big * (i + 7)) // (i + 3)


class RefClock:
    def __init__(self):
        self.marks: List[Tuple[float, float]] = []  # (end time, kernel seconds)

    def calibrate(self) -> None:
        gc.disable()  # the collector's cost depends on what avw left alive
        try:
            t0 = time.perf_counter()
            calibration_kernel()
            t1 = time.perf_counter()
        finally:
            gc.enable()
        self.marks.append((t1, t1 - t0))

    def tick(self) -> None:
        """Calibrate when the last calibration is CAL_EVERY_S old."""
        if not self.marks or time.perf_counter() - self.marks[-1][0] >= CAL_EVERY_S:
            self.calibrate()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end].  Every job
        is preceded by a tick, so at least one calibration is in range."""
        near = [c for t, c in self.marks
                if start - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S]
        return CAL_REF_S / statistics.median(near)
