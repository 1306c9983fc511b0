"""Host speed calibration for the benchmark's timings.

On a shared host the same job can take up to twice as long from one second
to the next, as neighbours come and go.  So the worker times, between
jobs, a fixed block of pure-Python work that uses
nothing of the package (calibration_work).  A measured time t with
calibration block times around it (median c) is reported as the reference
time t * REFERENCE_CALIBRATION_S / c: what it would take on a host where the
block takes REFERENCE_CALIBRATION_S.  A change to the package changes t and
leaves c alone, so it shows in full in the reference time.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The block's best time on the 2-core VM the bounds were set on, so that
# reference times there are about the times of an unloaded host.
REFERENCE_CALIBRATION_S = 0.0035
# Blocks timed at each calibration point.  The host speed around a job is
# the median of the blocks at the points before and after it: in eight runs
# of one fixed job set, that median made the reference times spread 0.02
# (interquartile range over median), against 0.07 for the best of two
# blocks and 0.10 for the measured times.
CALIBRATION_BLOCKS = 4
# Jobs are short next to the seconds a host state lasts, so a new point is
# timed only after this much job time since the last one.
CALIBRATION_INTERVAL_S = 0.25


def calibration_work():
    """Fraction row reduction of a 9 x 10 Hilbert-like matrix and a
    120-term integer convolution: the arithmetic the workloads spend their
    time in, written out here so that no change to the package changes it."""
    n = 9
    rows = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(i)] for i in range(n)]
    for c in range(n):
        inv = 1 / rows[c][c]
        pivot = rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], pivot)]
    a = [(7 * i * i + 3) % 11 - 5 for i in range(120)]
    conv = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            conv[i + j] += x * y
    return rows[-1][-1], sum(conv)


def calibrate() -> list[float]:
    """Times of CALIBRATION_BLOCKS runs of calibration_work, in seconds."""
    times = []
    for _ in range(CALIBRATION_BLOCKS):
        start = time.perf_counter()
        calibration_work()
        times.append(time.perf_counter() - start)
    return times


def scaled(seconds: float, before: list[float], after: list[float]) -> float:
    """The reference time of a measurement taken between two calibration
    points."""
    return seconds * REFERENCE_CALIBRATION_S / statistics.median(before + after)
