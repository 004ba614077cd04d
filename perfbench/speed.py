"""Scaling of wall times to a machine of fixed speed.

The machine the benchmark was tuned on (2 shared vCPUs) changes speed by up
to 1.7x over seconds to minutes, and a pure-Python loop slows with it: run
by run, the loop's time and a workload's time moved together, and their
ratio spread far less than either (see README).  So every timed call, and
every set-up, is scaled by the loop timed just before and just after it, to
a machine on which the loop takes REF_MS.  The loop only reads small cached
ints and allocates nothing, so the heap a call leaves behind does not change
its time; a loop that allocated ran twice as long after a sim-gamma call.
This module imports nothing beyond the standard library, so a set-up can be
scaled from before its first import.
"""

from __future__ import annotations

import statistics
import time

REF_DATA = [i & 0xFF for i in range(100_000)]
REF_MS = 2.5


def ref_ms() -> float:
    """Wall milliseconds of the reference loop, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for x in REF_DATA:
            acc ^= x
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


class SpeedScale:
    """Scales the wall times of consecutive calls to the reference speed."""

    def __init__(self):
        self.refs = [ref_ms()]

    def scale(self, wall: float) -> float:
        """`wall` of the call that just ended, scaled by the reference loop
        timed before it and now."""
        self.refs.append(ref_ms())
        return wall * 2.0 * REF_MS / (self.refs[-2] + self.refs[-1])

    def detail(self) -> dict:
        return {"ref_ms_median": statistics.median(self.refs), "ref_ms_each": self.refs}
