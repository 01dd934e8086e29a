"""Host-speed calibration for the timed passes.

The shared hosts this benchmark runs on change speed by up to about 1.8x
for seconds to minutes at a time, for reasons outside the benchmark's
process; interpreted code and small numpy calls, which is most of what
combweyl runs, slow down the most.  A fixed loop of the same kind of work
is timed right before and right after every pass, and the pass's times are
rescaled to the speed at which that loop takes CAL_REF_S:

    reported = measured * CAL_REF_S / sqrt(loop time before * loop time after)

So wall_s, op_p50_ms and op_p90_ms are in reference seconds: what the pass
would have taken with the host at reference speed.  The loop does not touch
combweyl, so a change to the program cannot change it.  run.py prints the
unscaled medians too.  Set-up is not rescaled: import time hardly follows
these swings.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# The loop's time on a 2-vCPU x86-64 host at its usual speed.
CAL_REF_S = 0.006

_SMALL = np.arange(40.0)


def _loop() -> float:
    t = perf_counter()
    s = 0.0
    for i in range(500):
        s += float(np.sin(_SMALL).sum()) + (i * i) % 7
    return perf_counter() - t


def calibrate() -> float:
    """The loop's time in seconds (three short runs, median, scaled to one)."""
    return 3.0 * statistics.median(_loop() for _ in range(3))


def factor(before: float, after: float) -> float:
    """How much slower than reference the host ran between two calibrations."""
    return math.sqrt(before * after) / CAL_REF_S
