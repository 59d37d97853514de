"""A fixed piece of work that says how fast the machine is *right now*.

The sandbox this benchmark runs in is a small VM on a shared host: for
seconds to minutes at a time the same Python runs 20-40 % slower (no
steal time is reported and CPU time equals wall time, so it is the memory
system being contended, not the scheduler).  A whole 6-second run can sit
inside such a phase, which no statistic over its own slices can see.

So after every slice the runner times this yardstick -- a few
milliseconds of the kinds of work the program does: dependent loads
through a heap much larger than the caches, a streaming numpy reduction,
allocation churn, generators resumed off a heap queue, and joining and
checksumming byte strings -- and ``host_us_per_op`` is reported at the
yardstick's nominal speed::

    host_us_per_op = median(slice us/op) * NOMINAL_MS / median(yardstick ms)

(``setup_s`` likewise, against readings taken right after each set-up).
The yardstick is benchmark code: an optimisation of the program cannot
move it, so a real gain still shows in full.  The raw wall-clock values
and the yardstick's own readings are kept in the run record.

Measured on this box, ten seeds per workload, two sets: the median slice
time spreads (interquartile / median) 9-29 % raw and 6-13 % against the
yardstick, whose own reading spreads 5-19 % from run to run.  Which of
the five components tracks a workload best differs per workload (the
generator loop for the hit path, the numpy stream for the viewer), so
the reading is their geometric mean: every component counts equally,
however many milliseconds it happens to take.
"""

from __future__ import annotations

import heapq
import math
import random
import zlib
from time import perf_counter

import numpy as np

__all__ = ["NOMINAL_MS", "Yardstick"]

#: The yardstick's time on the reference box (2 vCPU sandbox, Python
#: 3.11, numpy 2.x).  Only a scale factor: it makes the normalised number
#: read in the reference box's microseconds.
NOMINAL_MS = 0.9


def _ticks(n: int):
    for _ in range(n):
        yield None


class Yardstick:
    """Build once per process (about 0.2 s), then call :meth:`run`."""

    def __init__(self) -> None:
        rng = random.Random(20210809)
        order = list(range(300_000))
        rng.shuffle(order)
        self._next = order
        self._cursor = 0
        self._array = np.arange(2_000_000, dtype=np.int64)  # 16 MB
        self._chunks = [bytes(16384) for _ in range(64)]  # 1 MB

    def run(self) -> float:
        """Geometric mean of the five components' seconds for one pass."""
        nxt = self._next
        marks = [perf_counter()]
        # Dependent loads across a 300k-slot list (cache misses).
        j = self._cursor
        for _ in range(5000):
            j = nxt[j]
        self._cursor = j
        marks.append(perf_counter())
        # Streaming read of 16 MB.
        self._array.sum()
        marks.append(perf_counter())
        # Allocation churn: short-lived tuples and dicts.
        pairs = [(i, i + 1) for i in range(3000)]
        boxes = [{"a": i, "b": j} for i in range(1500)]
        del pairs, boxes
        marks.append(perf_counter())
        # A miniature event loop: generators resumed off a heap queue.
        queue = [(i * 0.1, i, _ticks(4)) for i in range(150)]
        heapq.heapify(queue)
        seq = len(queue)
        while queue:
            when, _, process = heapq.heappop(queue)
            try:
                process.send(None)
            except StopIteration:
                continue
            heapq.heappush(queue, (when + 1.0, seq, process))
            seq += 1
        marks.append(perf_counter())
        # Byte strings joined and checksummed (what PLFS does per chunk).
        zlib.crc32(b"".join(self._chunks))
        marks.append(perf_counter())
        return math.exp(
            sum(math.log(b - a) for a, b in zip(marks, marks[1:]))
            / (len(marks) - 1)
        )
