"""Machine-speed probe: every timing is scaled to a fixed reference speed.

On a shared host the interpreter's speed drifts: on a 2-core cloud VM
running CPython 3.11, a fixed pure-Python task took anywhere from 0.87 to
1.63 ms in consecutive two-second windows of one process, and identical
operations differed by a third between 25-second runs. A raw median cannot
be steady under that. So the benchmark runs a fixed reference task -- a
heap-based shortest-path search on a seeded 48x48 grid, written here and
independent of perfplan -- between operations, at least every
PROBE_EVERY_S seconds, and divides each operation's wall time by the ratio
of the probes around it to REFERENCE_S. Times therefore read as seconds on
a machine that runs the reference task in 1 ms. Every probe is kept, and
the run reports their median, so raw time is roughly the reported time
multiplied by that median.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

REFERENCE_S = 1e-3     # reference task time that defines the reported speed
PROBE_EVERY_S = 0.1    # the longest a probe serves before the next is taken
PROBE_REPEATS = 3      # a probe is the median of this many reference runs
_SIDE = 48


def _grid():
    rng = random.Random(0)
    free = [rng.random() > 0.2 for _ in range(_SIDE * _SIDE)]
    free[0] = True
    adj = []
    for i in range(_SIDE * _SIDE):
        x, y = i % _SIDE, i // _SIDE
        near = ((i - _SIDE, y > 0), (i - 1, x > 0), (i + 1, x < _SIDE - 1), (i + _SIDE, y < _SIDE - 1))
        adj.append(tuple(j for j, ok in near if ok and free[i] and free[j]))
    return adj


def reference_task(adj) -> int:
    """Dijkstra from cell 0 with unit weights; returns the number of reached cells."""
    dist = [1 << 30] * len(adj)
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, i = heapq.heappop(heap)
        if d > dist[i]:
            continue
        for j in adj[i]:
            if d + 1 < dist[j]:
                dist[j] = d + 1
                heapq.heappush(heap, (d + 1, j))
    return sum(1 for d in dist if d < 1 << 30)


class Clock:
    def __init__(self):
        self.adj = _grid()
        self.factors: list = []
        self._last = 0.0
        self.probe()

    def probe(self) -> None:
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            reference_task(self.adj)
            times.append(time.perf_counter() - t0)
        self.factors.append(statistics.median(times) / REFERENCE_S)
        self._last = time.perf_counter()

    def scaled(self, start: float, end: float) -> float:
        """Wall seconds from `start` to `end`, at the reference speed.

        The speed swings within fractions of a second, so an interval is
        scaled by the mean of the latest probe before it and a fresh probe
        after it; intervals inside one PROBE_EVERY_S window share a probe."""
        before = self.factors[-1]
        if end - self._last >= PROBE_EVERY_S:
            self.probe()
        return (end - start) / ((before + self.factors[-1]) / 2)

    def factor_median(self) -> float:
        return statistics.median(self.factors)
