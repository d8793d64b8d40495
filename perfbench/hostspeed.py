"""Host-speed calibration, so that timings from a shared host compare.

The benchmark's host runs at changing speeds: its cores are shared, and a
round of the same work can take 40% longer from one minute to the next.
`calibrate` times a fixed pure-Python loop that uses none of the program's
code. rep.py runs it before set-up and before every round, outside the
timed intervals, and run.py scales each timing by CAL_REF_S over the loop's
time beside it. CAL_REF_S is the loop's time on the development host (Xeon,
2.1 GHz), so a scaled timing reads as seconds on that host at that speed.
"""

from __future__ import annotations

import math
import time

CAL_REF_S = 1.6e-4


def calibrate(clock=time.perf_counter) -> float:
    """Best of five timings of a fixed pure-Python loop, in seconds."""
    best = math.inf
    for _ in range(5):
        t = clock()
        total = 0
        for i in range(3000):
            total += i * i
        best = min(best, clock() - t)
    return best


def scaled(seconds: float, cal_s: float) -> float:
    """`seconds` measured while the loop took `cal_s`, at the reference speed."""
    return seconds * CAL_REF_S / cal_s
