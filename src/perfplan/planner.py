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

The open list has two levels. On a 4-grid a step changes the Manhattan
distance by exactly one, so a successor's f is its parent's (a step toward
the goal) or its parent's + 2, and the cell being expanded always has the
smallest f queued: only that f, F, needs a heap, and the cells of F + 2
wait in a plain list until the heap runs dry. The levels also decide
whether a step lowers a neighbor's cost, so the search keeps no g: a step
toward the goal always does, and a step away from it queues only a cell
that has no parent yet. The first neighbor toward the goal that an
iteration queues has the smallest key of all, so it becomes the current
cell at once, with no key and no heap call: a full iteration hands it to
the next one, and a perforated step moves onto it itself. A cell is
decoded only after a heap pop. Pop order, and with it every path and
counter, is that of a search with one heap over (f, h, y, x). A found
path is decoded in one pass over the parent links, which end at the
start's parent, the border index 0.

Before the loop, a query is walked: from the start, step onto the first
free neighbor toward the goal, in the order up, left, right, down, with
no parent links and no heap. Until the search reaches a cell with no free
neighbor toward the goal, every iteration does the same: a full iteration
takes that neighbor directly, and a perforated one moves onto it itself.
None of those cells can be closed, since each is a step nearer the goal
than every cell closed before it, and the neighbors a full iteration
queues are never popped. So when the walk reaches the goal, its path is
the search's at every rate and in every mode, and the schedule alone
decides the counters: of the `e` iterations the walk stands in for (`e`
its edges), the full slots among the schedule's first `e`, plus the goal
pop, are `expansions`, and the rest are `skipped`. The walk does the same
work at every rate, so perforation buys nothing on a walked query. A walk
that dead-ends is dropped, and the loop searches from the start.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import count, cycle, islice, repeat

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


@dataclass(frozen=True, init=False)
class PlanOutcome:
    """Result of one search: status, path, and main-loop work counters.

    `expansions` counts executed main-loop iterations (including the final
    goal pop, and in truncation mode the exact search that sized the loop);
    `skipped` counts perforated ones. A query that the walk (module
    docstring) takes to its goal runs no loop: its counters are the loop
    iterations that the walk stands in for. `failed_leg` is set when a
    multi-leg plan fails, to the 0-based index of the failing leg.
    """

    status: str
    path: tuple
    expansions: int
    skipped: int
    failed_leg: int | None = None

    def __init__(self, status: str, path: tuple, expansions: int, skipped: int,
                 failed_leg: int | None = None):
        # Every search builds one. Filling the instance dict directly costs
        # under half of the generated frozen __init__, which goes through
        # object.__setattr__ once per field; the class stays frozen.
        d = self.__dict__
        d["status"] = status
        d["path"] = path
        d["expansions"] = expansions
        d["skipped"] = skipped
        d["failed_leg"] = failed_leg

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
    # is 0, so a neighbor index never needs a bounds check. The grid gives
    # each endpoint's index, or 0 when it is blocked or off the grid.
    src, dst = grid._free_index(start), grid._free_index(goal)
    if not src:
        raise ValueError(f"start {Cell(*start)} is blocked or out of range")
    if not dst:
        raise ValueError(f"goal {Cell(*goal)} is blocked or out of range")

    w = grid.width + 2
    mask = grid._mask
    n = len(mask)
    gy, gx = divmod(dst, w)
    y, x = divmod(src, w)
    # The walk (module docstring): step onto the first free neighbor toward
    # the goal, up, left, right, down. Above the goal that is up, else the
    # side step, and the other direction only when it is blocked; `c1` and
    # `c2` count the steps left in each.
    if y > gy:
        d1, c1, d2, c2 = -w, y - gy, (1 if x < gx else -1), abs(x - gx)
    else:
        d1, c1, d2, c2 = (1 if x < gx else -1), abs(x - gx), w, gy - y
    walk = [src]
    cur = src
    while True:
        if c1 and mask[cur + d1]:
            cur += d1
            c1 -= 1
        elif c2 and mask[cur + d2]:
            cur += d2
            c2 -= 1
        else:
            break
        walk.append(cur)
    if cur == dst:
        # Its e iterations draw the schedule's first e slots; f run in full.
        e = len(walk) - 1
        f = sum(islice(_schedule(spec, extent, n), e))
        cells, cell = grid._cells, grid._cell
        return PlanOutcome(FOUND, tuple([cells[i] or cell(i) for i in walk]), f + 1, e - f)
    # A dead end: the search runs from the start.
    # Closing a cell zeroes its byte: one lookup tests "free and not closed".
    open_ = bytearray(mask)
    # Every iteration but the last closes a cell, so no index reaches n.
    runs_in_full = _schedule(spec, extent, n).__next__
    # The open list has two levels. A step changes h by exactly 1, so a
    # successor has cur's f and h - 1 (a step toward the goal) or f + 2
    # and h + 1 (any other), and cur's f, F, is the smallest queued. `now`
    # is a heap of level F, `later` a list of level F + 2; both hold int
    # keys h*n + cell, which order like (h, y, x). When `now` runs dry,
    # `later` is heapified into it and F rises by 2.
    # The levels decide every relaxation, so no g is kept. A neighbor
    # toward the goal is always queued: queued at F, its key would lie
    # below cur's and it would be closed by now, so it waits at F + 2 if
    # at all, and this step lowers it. A neighbor away from the goal is
    # queued only if it has no parent yet: a cell that has one waits at F
    # or F + 2 already, no higher than this step would put it.
    now: list = []
    later: list = []
    # The start's parent is 0, a border index and never a cell, so the pass
    # that decodes a found path ends there. The start is closed before any
    # neighbor test reads came_from, so its entry decides no queueing.
    came_from: dict = {src: 0}
    expansions = 0
    skipped = 0
    pop, push, heapify = heapq.heappop, heapq.heappush, heapq.heapify
    cur = src
    # x, y (padded) and h are cur's: decoded for a cell taken from `now`,
    # moved along with a cell taken directly.
    h = abs(x - gx) + abs(y - gy)

    while True:
        # cur is open and has the smallest (f, h, cell) queued.
        if cur == dst:
            expansions += 1
            cells, cell = grid._cells, grid._cell
            path = []
            while cur:
                path.append(cells[cur] or cell(cur))
                cur = came_from[cur]
            path.reverse()
            # Built from a list, not a generator: tuple() over a generator
            # grows the tuple by reallocation, and in a loop that keeps a few
            # small objects per search that doubled how fast peak RSS grew.
            return PlanOutcome(FOUND, tuple(path), expansions, skipped)
        open_[cur] = 0
        # The first successor toward the goal that an iteration queues has
        # a key below cur's, so below every key in `now`: it becomes cur at
        # once, with no key and no heap call.
        if runs_in_full():
            expansions += 1
            nxt = 0  # a border index, never open
            # The four neighbors, unrolled in row-major order; up, being
            # first, is taken directly whenever it is toward the goal.
            nb = cur - w
            if open_[nb] and (y > gy or nb not in came_from):
                came_from[nb] = cur
                if y > gy:
                    nxt, nx, ny = nb, x, y - 1
                else:
                    later.append((h + 1) * n + nb)
            nb = cur - 1
            if open_[nb] and (x > gx or nb not in came_from):
                came_from[nb] = cur
                if x <= gx:
                    later.append((h + 1) * n + nb)
                elif nxt:
                    push(now, (h - 1) * n + nb)
                else:
                    nxt, nx, ny = nb, x - 1, y
            nb = cur + 1
            if open_[nb] and (x < gx or nb not in came_from):
                came_from[nb] = cur
                if x >= gx:
                    later.append((h + 1) * n + nb)
                elif nxt:
                    push(now, (h - 1) * n + nb)
                else:
                    nxt, nx, ny = nb, x + 1, y
            nb = cur + w
            if open_[nb] and (y < gy or nb not in came_from):
                came_from[nb] = cur
                if y >= gy:
                    later.append((h + 1) * n + nb)
                elif nxt:
                    push(now, (h - 1) * n + nb)
                else:
                    nxt, nx, ny = nb, x, y + 1
            if nxt:
                cur, x, y = nxt, nx, ny
                h -= 1
                continue
        else:
            skipped += 1
            # Degraded expansion: queue only the most promising successor,
            # the first open neighbor (row-major) with the lowest h. The
            # first open one toward the goal is taken right here: cur moves
            # onto it, with its y or x and h. Else the first open one goes
            # to `later`, and the pop below finds the next cell.
            if y > gy and open_[nb := cur - w]:
                came_from[nb] = cur
                cur, y, h = nb, y - 1, h - 1
                continue
            if x > gx and open_[nb := cur - 1]:
                came_from[nb] = cur
                cur, x, h = nb, x - 1, h - 1
                continue
            if x < gx and open_[nb := cur + 1]:
                came_from[nb] = cur
                cur, x, h = nb, x + 1, h - 1
                continue
            if y < gy and open_[nb := cur + w]:
                came_from[nb] = cur
                cur, y, h = nb, y + 1, h - 1
                continue
            if ((open_[nb := cur - w] or open_[nb := cur - 1] or open_[nb := cur + 1]
                 or open_[nb := cur + w]) and nb not in came_from):
                came_from[nb] = cur
                later.append((h + 1) * n + nb)
        # Nothing was taken directly: pop `now`, skipping stale entries.
        while True:
            if not now:
                if not later:
                    return PlanOutcome(NOT_FOUND, (), expansions, skipped)
                now, later = later, now
                heapify(now)
            h, cur = divmod(pop(now), n)
            if open_[cur]:
                break
        y, x = divmod(cur, w)


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

    Leg paths are concatenated with junction cells deduplicated, so every
    cell of the plan is a leg's own, the grid's shared `Cell`; counters are
    summed. Fails with the 0-based failing leg index if any leg fails. A task
    without waypoints is one leg, and its plan is that search's outcome.
    """
    if not task.waypoints:
        out = astar_perforated(grid, task.start, task.goal, spec)
        return out if out.found else replace(out, failed_leg=0)
    path = []
    expansions = 0
    skipped = 0
    for leg_index, (src, dst) in enumerate(task.legs()):
        outcome = astar_perforated(grid, src, dst, spec)
        expansions += outcome.expansions
        skipped += outcome.skipped
        if not outcome.found:
            return PlanOutcome(NOT_FOUND, (), expansions, skipped, failed_leg=leg_index)
        path.extend(outcome.path[1:] if path else outcome.path)
    return PlanOutcome(FOUND, tuple(path), expansions, skipped)

