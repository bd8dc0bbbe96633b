"""A fixed reference computation that gauges the host's current speed.

The benchmark runs on shared hosts whose speed drifts by up to 50% over
minutes, while CPU time tracks wall time: the process is not waiting, it
runs slower.  A time measured at one moment is therefore not comparable to
one measured minutes later.  The yardstick is timed right before and right
after each operation, and the operation's time is reported in yardstick
calls: `op_rel` = operation seconds per item / yardstick seconds per call.
The drift cancels in the ratio; a change to the program does not, because
the yardstick uses no taskdse code.

One call mixes the two kinds of work the engines do: a heap-driven event
loop over small objects and dicts, like the simulator and the search loop,
and elementwise minima and sums of small integer matrices, like the DBM
kernel.  It takes about 13 ms on a 2.1 GHz Xeon.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter

import numpy

EVENTS = 12000
MATRICES = 1200
CHECKSUM = 65780020  # the result of every call; a different one means a broken yardstick


class _Event:
    __slots__ = ("time", "kind", "value")

    def __init__(self, time: float, kind: int, value: int):
        self.time = time
        self.kind = kind
        self.value = value


def call() -> int:
    """One yardstick call; returns CHECKSUM."""
    rng = random.Random(7)
    queue: list = []
    now = 0.0
    totals: dict[int, int] = {}
    for i in range(EVENTS):
        ev = _Event(now + rng.random(), i % 97, i)
        heapq.heappush(queue, (ev.time, i, ev))
        if len(queue) > 50:
            now, _, ev = heapq.heappop(queue)
            totals[ev.kind] = totals.get(ev.kind, 0) + ev.value
    dbm = numpy.arange(64, dtype=numpy.int64).reshape(8, 8)
    for i in range(MATRICES):
        row = dbm[i % 8]
        dbm = numpy.minimum(dbm, row[:, None] + dbm[:, i % 8][None, :] + 1)
        dbm[i % 8, (i + 3) % 8] += i
    return (sum(totals.values()) * 31 + int(dbm.sum())) % 2**31


def block(seconds: float) -> float:
    """Yardstick calls for about `seconds` (at least one); seconds per call."""
    calls = 0
    start = perf_counter()
    while True:
        if call() != CHECKSUM:
            raise RuntimeError("yardstick computed a wrong checksum")
        calls += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / calls > seconds:
            return elapsed / calls
