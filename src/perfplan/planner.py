"""A* on 4-connected grids, exact and with a loop-perforated expansion loop.

The perforated variant gates the main open-list loop: each popped node is
goal-tested first, then the perforation schedule decides whether the
iteration runs in full or is perforated. A perforated iteration closes the
node without expanding it; only the node's single most promising successor
(lowest heuristic, row-major on ties) is queued, so the search degrades into
a thin greedy probe instead of orphaning its own frontier. Every queued cell
is a free neighbor of a visited cell, so found paths are always obstacle-free
and step-adjacent at any rate; at extreme rates the probe can dead-end and
the search may legally fail.

The smallest key an iteration queues is carried past the heap. While it is
below every key in the heap, the next iteration takes its cell directly, so
the search chains from iteration to iteration without a heap operation. The
carried cell's coordinates and heuristic go with it, from a full iteration
or a perforated step alike, so only a cell taken from the heap is decoded.
Each neighbor's heuristic is the current one plus or minus 1: on a 4-grid a
step changes the Manhattan distance by exactly one. Only when the heap holds
a smaller key does the carried one go through the heap. Pop order, and with
it every path and counter, is that of a search that queues every key.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import count, cycle, repeat

from .gridworld import Cell, GridMap, RobotTask

MODULO = "modulo"
TRUNCATION = "truncation"
RANDOM = "random"
MODES = (MODULO, TRUNCATION, RANDOM)

FOUND = "found"
NOT_FOUND = "not_found"

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def manhattan(a: Cell, b: Cell) -> int:
    return abs(a.x - b.x) + abs(a.y - b.y)


def _mix64(z: int) -> int:
    # splitmix64 finalizer: a stateless, platform-independent hash.
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class PerforationSpec:
    """Loop-skip schedule: skip `skip` of every `window` iterations (rate k/n).

    modulo:     in each window of `window` indices the first window-skip
                execute and the last `skip` are dropped; skip=window-1 is the
                classic `i += n` stride, skip=1 the one-in-n drop.
    truncation: a contiguous block of floor(rate * extent) indices is dropped
                at the tail of the loop's planned extent.
    random:     each index is dropped independently with probability skip/window,
                decided statelessly from (seed, index).
    """

    mode: str = MODULO
    skip: int = 0
    window: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown perforation mode {self.mode!r}; choose from {MODES}")
        if not (0 <= self.skip < self.window):
            raise ValueError(f"rate must be in [0, 1): need 0 <= skip < window, got {self.skip}/{self.window}")

    @property
    def rate(self) -> Fraction:
        return Fraction(self.skip, self.window)

    @classmethod
    def from_rate(cls, rate, mode: str = MODULO, seed: int = 0) -> "PerforationSpec":
        frac = Fraction(rate)
        return cls(mode, frac.numerator, frac.denominator, seed=seed)


NO_PERFORATION = PerforationSpec()


def perforation_schedule(spec: PerforationSpec, i: int, extent: int | None = None) -> bool:
    """True if iteration i executes, False if it is perforated away.

    `extent` is the planned loop extent; required only for truncation mode.
    """
    if i < 0:
        raise ValueError(f"iteration index must be >= 0, got {i}")
    if spec.skip == 0:
        return True
    if spec.mode == MODULO:
        return i % spec.window < spec.window - spec.skip
    if spec.mode == RANDOM:
        h = _mix64((spec.seed * _GOLDEN64 + i + 1) & _MASK64)
        return h % spec.window >= spec.skip
    if extent is None:
        raise ValueError("truncation schedule needs a loop extent")
    if extent < 1:
        raise ValueError(f"loop extent must be >= 1, got {extent}")
    return i < extent - spec.skip * extent // spec.window


@dataclass(frozen=True)
class PlanOutcome:
    """Result of one search: status, path, and main-loop work counters.

    `expansions` counts executed main-loop iterations (including the final
    goal pop, and in truncation mode the exact search that sized the loop);
    `skipped` counts perforated ones. `failed_leg` is set when a multi-leg
    plan fails, to the 0-based index of the failing leg.
    """

    status: str
    path: tuple
    expansions: int
    skipped: int
    failed_leg: int | None = None

    @property
    def found(self) -> bool:
        return self.status == FOUND

    @property
    def edges(self) -> int:
        """Path length in edges (hops)."""
        if not self.found:
            raise ValueError("no path: outcome is not_found")
        return len(self.path) - 1


@lru_cache(maxsize=64)
def _modulo_pattern(skip: int, window: int, length: int) -> bytes:
    """The modulo schedule of skip/window for each i < length, one byte each.

    Keyed by ints: hashing a 3-int tuple costs a quarter of hashing a spec.
    """
    spec = PerforationSpec(MODULO, skip, window)
    return bytes([perforation_schedule(spec, i) for i in range(length)])


def _schedule(spec: PerforationSpec, extent: int | None, n: int):
    """Iterator of `perforation_schedule(spec, i, extent)`, i = 0, 1, ...; every i read is < n."""
    if spec.skip == 0:
        return repeat(True)
    if spec.mode == MODULO:
        return cycle(_modulo_pattern(spec.skip, spec.window, min(spec.window, n)))
    return map(perforation_schedule, repeat(spec), count(), repeat(extent))


def _astar(grid: GridMap, start: Cell, goal: Cell,
           spec: PerforationSpec, extent: int | None) -> PlanOutcome:
    # Cells are indices into the grid's padded occupancy mask; the border
    # is 0, so a neighbor index never needs a bounds check. An endpoint's
    # index is computed only once `in_bounds` has passed it: an off-grid
    # index can wrap onto a free cell of another row.
    (x0, y0), (x1, y1) = start, goal
    w = grid.width + 2
    mask = grid._mask
    if not (grid.in_bounds(start) and mask[src := (y0 + 1) * w + x0 + 1]):
        raise ValueError(f"start {Cell(*start)} is blocked or out of range")
    if not (grid.in_bounds(goal) and mask[dst := (y1 + 1) * w + x1 + 1]):
        raise ValueError(f"goal {Cell(*goal)} is blocked or out of range")

    # Closing a cell zeroes its byte: one lookup tests "free and not closed".
    open_ = bytearray(mask)
    n = len(open_)
    hm = grid.width + grid.height  # exceeds every h
    gx, gy = x1 + 1, y1 + 1
    # Every iteration but the last closes a cell, so no index reaches n.
    runs_in_full = _schedule(spec, extent, n).__next__
    # One int heap key (f*hm + h)*n + cell orders like (f, h, y, x): ties
    # broken by lower h, then row-major cell. Keys are unique (a cell is
    # re-queued only with a lower g), so the pop order depends only on the
    # set of queued keys. The smallest key an iteration queues is carried
    # past the heap: while the heap is empty or its smallest key is larger,
    # the next iteration takes the carried cell directly, which is open and
    # has g = ng, so a run of such iterations (a chain) makes no heap call
    # at all. Otherwise heappushpop queues it and takes the heap's smallest.
    open_heap: list = []
    g = {src: 0}
    came_from: dict = {}
    expansions = 0
    skipped = 0
    pop, push, pushpop = heapq.heappop, heapq.heappush, heapq.heappushpop
    cur, ng = src, 1
    # x, y (padded) and h are cur's. They are decoded for the start and for
    # a cell taken from the heap; a carried cell brings its own, from a full
    # iteration or a perforated step alike, so a chain decodes no cell.
    x, y = x0 + 1, y0 + 1
    h = abs(x - gx) + abs(y - gy)

    while True:
        # cur is open and its g is ng - 1.
        if cur == dst:
            expansions += 1
            path = [cur]
            while cur in came_from:
                cur = came_from[cur]
                path.append(cur)
            # Built from a list, not a generator: tuple() over a generator
            # grows the tuple by reallocation, and in a loop that keeps a few
            # small objects per search that doubled how fast peak RSS grew.
            cells, cell = grid._cells, grid._cell
            return PlanOutcome(FOUND, tuple([cells[i] or cell(i) for i in reversed(path)]),
                               expansions, skipped)
        open_[cur] = 0
        # A step toward the goal lowers h by 1 and any other raises it by 1,
        # so each neighbor's h is h - 1 or h + 1.
        if runs_in_full():
            expansions += 1
            # The four neighbors, unrolled in row-major order. The first
            # one queued is carried; a smaller key queued later displaces
            # it into the heap. The carried cell's x, y and h go with it.
            nb = cur - w
            if open_[nb] and ng < g.get(nb, n):  # n exceeds every g
                g[nb] = ng
                came_from[nb] = cur
                hn = h - 1 if y > gy else h + 1
                carried, nxt, cx, cy, ch = ((ng + hn) * hm + hn) * n + nb, nb, x, y - 1, hn
            else:
                carried = 0  # keys are >= 1
            nb = cur - 1
            if open_[nb] and ng < g.get(nb, n):
                g[nb] = ng
                came_from[nb] = cur
                hn = h - 1 if x > gx else h + 1
                k = ((ng + hn) * hm + hn) * n + nb
                if not carried:
                    carried, nxt, cx, cy, ch = k, nb, x - 1, y, hn
                elif k < carried:
                    push(open_heap, carried)
                    carried, nxt, cx, cy, ch = k, nb, x - 1, y, hn
                else:
                    push(open_heap, k)
            nb = cur + 1
            if open_[nb] and ng < g.get(nb, n):
                g[nb] = ng
                came_from[nb] = cur
                hn = h - 1 if x < gx else h + 1
                k = ((ng + hn) * hm + hn) * n + nb
                if not carried:
                    carried, nxt, cx, cy, ch = k, nb, x + 1, y, hn
                elif k < carried:
                    push(open_heap, carried)
                    carried, nxt, cx, cy, ch = k, nb, x + 1, y, hn
                else:
                    push(open_heap, k)
            nb = cur + w
            if open_[nb] and ng < g.get(nb, n):
                g[nb] = ng
                came_from[nb] = cur
                hn = h - 1 if y < gy else h + 1
                k = ((ng + hn) * hm + hn) * n + nb
                if not carried:
                    carried, nxt, cx, cy, ch = k, nb, x, y + 1, hn
                elif k < carried:
                    push(open_heap, carried)
                    carried, nxt, cx, cy, ch = k, nb, x, y + 1, hn
                else:
                    push(open_heap, k)
            if carried:
                x, y, h = cx, cy, ch
        else:
            skipped += 1
            carried = 0
            # Degraded expansion: queue only the most promising successor,
            # the first open neighbor (row-major) with the lowest h: the
            # first open one toward the goal, else the first open one. Its
            # x, y and h go with it.
            if y > gy and open_[cur - w]:
                nxt, y, h = cur - w, y - 1, h - 1
            elif x > gx and open_[cur - 1]:
                nxt, x, h = cur - 1, x - 1, h - 1
            elif x < gx and open_[cur + 1]:
                nxt, x, h = cur + 1, x + 1, h - 1
            elif y < gy and open_[cur + w]:
                nxt, y, h = cur + w, y + 1, h - 1
            elif open_[cur - w]:
                nxt, y, h = cur - w, y - 1, h + 1
            elif open_[cur - 1]:
                nxt, x, h = cur - 1, x - 1, h + 1
            elif open_[cur + 1]:
                nxt, x, h = cur + 1, x + 1, h + 1
            elif open_[cur + w]:
                nxt, y, h = cur + w, y + 1, h + 1
            else:
                nxt = cur  # a dead end: g[cur] is ng - 1, so nothing is queued
            if ng < g.get(nxt, n):
                g[nxt] = ng
                came_from[nxt] = cur
                carried = ((ng + h) * hm + h) * n + nxt
        if carried:
            if not open_heap or carried < open_heap[0]:
                cur = nxt
                ng += 1
                continue
            cur = pushpop(open_heap, carried) % n
        else:
            cur = 0  # a border index, never open: the loop below pops
        while not open_[cur]:  # nothing queued, or a stale heap entry
            if not open_heap:
                return PlanOutcome(NOT_FOUND, (), expansions, skipped)
            cur = pop(open_heap) % n
        ng = g[cur] + 1
        y, x = divmod(cur, w)
        h = abs(x - gx) + abs(y - gy)


def astar_exact(grid: GridMap, start: Cell, goal: Cell) -> PlanOutcome:
    """Optimal A*: unit edge cost, Manhattan heuristic, 4-connectivity."""
    return _astar(grid, start, goal, NO_PERFORATION, None)


def astar_perforated(grid: GridMap, start: Cell, goal: Cell, spec: PerforationSpec) -> PlanOutcome:
    """A* with the expansion loop gated by the perforation schedule.

    Rate 0 runs the exact search. Truncation mode needs a loop extent: the
    exact run's expansion count for the same query. That exact search is
    work this mode does, so its expansions are added to the returned ones.
    """
    if spec.skip == 0 or spec.mode != TRUNCATION:
        return _astar(grid, start, goal, spec, None)
    extent = astar_exact(grid, start, goal).expansions
    out = _astar(grid, start, goal, spec, extent)
    return replace(out, expansions=out.expansions + extent)


def plan_multi_leg(grid: GridMap, task: RobotTask,
                   spec: PerforationSpec = NO_PERFORATION) -> PlanOutcome:
    """Plan start -> waypoints... -> goal as independent perforated legs.

    Leg paths are concatenated with junction cells deduplicated; counters are
    summed. Fails with the 0-based failing leg index if any leg fails. A task
    without waypoints is one leg, and its plan is that search's outcome.
    """
    if not task.waypoints:
        out = astar_perforated(grid, task.start, task.goal, spec)
        return out if out.found else replace(out, failed_leg=0)
    path = [task.start]
    expansions = 0
    skipped = 0
    for leg_index, (src, dst) in enumerate(task.legs()):
        outcome = astar_perforated(grid, src, dst, spec)
        expansions += outcome.expansions
        skipped += outcome.skipped
        if not outcome.found:
            return PlanOutcome(NOT_FOUND, (), expansions, skipped, failed_leg=leg_index)
        path.extend(outcome.path[1:])
    return PlanOutcome(FOUND, tuple(path), expansions, skipped)
