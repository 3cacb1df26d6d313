"""Timing scaled to a reference machine speed.

On a shared machine the speed of one core drifts by tens of percent within
seconds, and the same code then takes that much longer (CPU time drifts as
much as wall time, so the core is not being taken away; it runs slower).
The reference loop, a fixed piece of pure-Python work, is therefore timed
before and after each stretch of program calls (an import, a report, one
type of a scan, one m of the spinor part, ten deform rounds), and each timed
operation is also reported scaled by REFERENCE_S / (mean of the loop times
taken around it): the time it would have taken on a core where the loop
takes REFERENCE_S.  The loop does not touch the program, so a faster
program still reads faster.
"""

from __future__ import annotations

import time

# The loop's time on a quiet core of the machine the figures in README.md
# were measured on (Intel Xeon vCPU at 2.1 GHz).
REFERENCE_S = 0.005


def reference_s() -> float:
    """Median of five timings of a fixed loop of dict, tuple and integer work."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        d = {}
        for i in range(20000):
            d[(i, i & 7)] = i * 3
        sum(v for k, v in d.items() if k[1] == 3)
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


class Stopwatch:
    """Sums the raw time of program calls and runs the reference loop
    before the first call and after each one."""

    def __init__(self, first_ref: float | None = None):
        self.refs = [reference_s() if first_ref is None else first_ref]
        self.raw_s = 0.0

    def call(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.raw_s += time.perf_counter() - t0
        self.refs.append(reference_s())
        return out

    def scale(self) -> float:
        """Factor to reference speed: REFERENCE_S over the mean loop time."""
        return REFERENCE_S * len(self.refs) / sum(self.refs)
