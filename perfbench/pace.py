"""Reference pacing: scale measured times by how fast the machine ran just then.

The benchmark runs on a few cores of a shared host whose speed changes by
up to a factor of two, for seconds or for minutes at a time, with the load
of its other tenants.  The CPU time of the benchmark process equals its wall
time through these changes, so the process is not descheduled: the same
instructions just take longer.  Timing a fixed job that trusskit does not
run, between operations, measures that speed.  Each measured time ``d``
taken at moment ``t`` is reported as ``d * REF_S / r(t)``, where ``r(t)`` is
the median time of the reference job at the marks nearest ``t`` and
``REF_S`` is the job's time when the machine runs fast.  A paced time is the
time the work would take at that speed; a change to trusskit moves it as
much as it moves the raw time, and the host's changes of speed cancel out of
it.

The job mixes interpreter work, numpy gathers from a small table and
gathers from a 16 MB table that does not fit in the core's caches, and it
allocates nothing the garbage collector tracks.  Its make-up was fitted on a
2-vCPU Xeon virtual machine: timed next to it in 40-second windows while the
machine's speed swung by half, interpreter-bound brace and C10 operations
and numpy-bound law checks all held within 5% once paced, where any one part
alone left some of them 10-25% off.  Making the large table adds 23 MB to
every run's peak RSS.  Each mark runs the job twice and keeps the second
time, so the caches an operation left behind do not count.
"""

import bisect
import statistics
import time

import numpy as np

REF_S = 1.8e-3  # the reference job's time on a 2-vCPU Xeon VM at its fast speed
EVERY_S = 0.05  # a mark at the first operation boundary this long after the last one
NEAR = 2  # marks taken on each side of a moment

_TABLE = np.arange(64 * 64, dtype=np.int64).reshape(64, 64) % 61
_INDEX = (np.arange(3 * 8192, dtype=np.int64) * 2654435761 % 64).reshape(3, 8192)
_LARGE = np.random.default_rng(0).integers(0, 2048, size=(2048, 2048), dtype=np.int32)
_LARGE_INDEX = np.random.default_rng(1).integers(0, 2048, size=(2, 9000))


def reference_job():
    s = 0
    for i in range(12000):
        s += i * i % 7
    for _ in range(6):
        s += int(_TABLE[_TABLE[_INDEX[0], _INDEX[1]], _INDEX[2]].sum())
    s += int(_LARGE[_LARGE_INDEX[0], _LARGE_INDEX[1]].sum())
    s += int(_LARGE[_LARGE_INDEX[1], _LARGE_INDEX[0]].sum())
    return s


class Pace:
    def __init__(self):
        self.at, self.took = [], []
        self.last = float("-inf")

    def mark(self):
        """Time the reference job now."""
        reference_job()
        start = time.perf_counter()
        reference_job()
        end = time.perf_counter()
        self.at.append(start)
        self.took.append(end - start)
        self.last = end

    def tick(self):
        """Mark if ``EVERY_S`` have passed since the last mark."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.mark()

    def scale(self, t):
        """``REF_S`` over the reference job's median time at the marks nearest ``t``."""
        k = bisect.bisect_right(self.at, t)
        near = self.took[max(0, k - NEAR):k + NEAR]
        return REF_S / statistics.median(near)
