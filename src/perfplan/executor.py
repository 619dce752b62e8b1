"""Discrete-time replay of planned paths and inter-robot collision detection.

Robots advance one cell per tick, all starting at t = 0, and park on their
final cell for the remainder of the horizon (a parked robot stays collidable).
Two robots collide either by occupying one cell during the same tick (vertex)
or by exchanging adjacent cells across a tick boundary (edge/swap); both kinds
are reported because a head-on meeting on a grid is always one of the two.

_tick_events is the one rule that builds a tick's events: set operations
over the tick's cells and moves flag a collision, and only then are robots
indexed by cell and by move, O(R) per tick. detect_collisions runs it on
every tick of a large group, and on a small one (by robot count) only on
the ticks that the pair scan flags by comparing every robot pair tick by
tick, O(R^2*T), which costs less there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count

from .gridworld import Scenario
from .planner import NO_PERFORATION, PerforationSpec, PlanOutcome, manhattan, plan_multi_leg

VERTEX = "vertex"
EDGE = "edge"


@dataclass(frozen=True)
class Timeline:
    """positions[t] is the cell robot `robot_id` occupies during tick t."""

    robot_id: int
    positions: tuple

    def __post_init__(self):
        if not self.positions:
            raise ValueError("timeline needs at least the start position")
        for t in range(1, len(self.positions)):
            a, b = self.positions[t - 1], self.positions[t]
            if a != b and manhattan(a, b) != 1:
                raise ValueError(f"non-adjacent step {a} -> {b} at tick {t}")

    @property
    def horizon(self) -> int:
        return len(self.positions) - 1


@dataclass(frozen=True)
class CollisionEvent:
    """One detected conflict: `cells` holds the shared cell (vertex) or the
    swapped pair ordered by the lower robot id's pre-swap cell (edge)."""

    t: int
    kind: str
    robots: tuple
    cells: tuple


@dataclass
class SimulationReport:
    outcomes: dict  # robot_id -> PlanOutcome
    timelines: tuple
    collisions: tuple
    makespan: int
    failed_robots: tuple

    @property
    def safe(self) -> bool:
        return not self.collisions and not self.failed_robots


def path_to_timeline(robot_id: int, path, horizon: int) -> Timeline:
    """Pad a path to `horizon` ticks by parking the robot at its last cell."""
    cells = list(path)
    if not cells:
        raise ValueError("cannot build a timeline from an empty path")
    if horizon < len(cells) - 1:
        raise ValueError(f"horizon {horizon} shorter than path ({len(cells) - 1} edges)")
    cells.extend([cells[-1]] * (horizon - (len(cells) - 1)))
    return Timeline(robot_id, tuple(cells))


# Above this many timelines detect_collisions builds events on every tick;
# at or below it, only on the ticks that the pair scan flags, which costs
# less on small groups. README "Benchmark" has the crossover measurements
# and the single-scan designs that were slower on some group size.
_PER_TICK_ROBOTS = 8


def detect_collisions(timelines) -> tuple:
    """Every vertex and swap event over all robot pairs, sorted by (t, robots).

    Timelines must share one horizon; pad them via path_to_timeline first.
    Groups of more than _PER_TICK_ROBOTS build events on every tick, smaller
    ones only on the ticks that _pair_scan flags; _tick_events builds both.
    """
    tls = list(timelines)
    if len({tl.horizon for tl in tls}) > 1:
        raise ValueError("timelines have mismatched horizons; pad them first")
    tls.sort(key=lambda tl: tl.robot_id)
    ids = [tl.robot_id for tl in tls]
    cols = [tl.positions for tl in tls]
    events: list = []
    if len(tls) > _PER_TICK_ROBOTS:
        # Rows are taken one tick at a time, so no transposed copy is held.
        prev = None
        for t, cur in enumerate(zip(*cols)):
            _tick_events(t, ids, prev, cur, events)
            prev = cur
    else:
        for t in _pair_scan(cols):
            prev = [c[t - 1] for c in cols] if t else None
            _tick_events(t, ids, prev, [c[t] for c in cols], events)
    events.sort(key=lambda e: (e.t, e.robots, e.kind))
    return tuple(events)


def _pair_scan(cols) -> set:
    """The ticks at which some robot pair shares a cell or swaps cells."""
    ticks = set()
    for a, b in combinations(cols, 2):
        pa = pb = None
        for t, ca, cb in zip(count(), a, b):
            if ca == cb or (ca == pb and cb == pa):
                ticks.add(t)
            pa, pb = ca, cb
    return ticks


def _tick_events(t, ids, prev, cur, events) -> None:
    """Append tick t's events, given every robot's cell at t - 1 (`prev`,
    None at t = 0) and at t (`cur`), in the order of `ids`. Set operations
    flag a collision; only then are robots indexed by cell and by move."""
    # Fewer distinct cells than robots: two robots share a cell.
    if len(set(cur)) < len(ids):
        at_cell: dict = {}
        for rid, cell in zip(ids, cur):
            at_cell.setdefault(cell, []).append(rid)
        for cell, here in at_cell.items():
            for pair in combinations(here, 2):
                events.append(CollisionEvent(t, VERTEX, pair, (cell,)))
    # A swap is a move prev -> cur whose reverse cur -> prev is also
    # made; a stationary robot's (cell, cell) is no move.
    if prev is not None:
        moves = {(p, c) for p, c in zip(prev, cur) if p != c}
        if not moves.isdisjoint(zip(cur, prev)):
            movers: dict = {}
            for rid, p, c in zip(ids, prev, cur):
                if p != c:
                    movers.setdefault((p, c), []).append(rid)
            for (p, c), forward in movers.items():
                for b in movers.get((c, p), ()):
                    for a in forward:
                        if a < b:
                            events.append(CollisionEvent(t, EDGE, (a, b), (p, c)))


def simulate(scenario: Scenario, spec: PerforationSpec = NO_PERFORATION) -> SimulationReport:
    """Plan every task with `spec`, replay the paths, and report conflicts.

    A robot whose plan fails is recorded in failed_robots and excluded from
    collision analysis; the other robots are still replayed, so a planning
    failure is never mislabelled as a collision. A found path through a
    blocked or off-grid cell raises RuntimeError; Timeline checks that its
    steps are adjacent.
    """
    outcomes: dict[int, PlanOutcome] = {}
    for task in scenario.tasks:
        outcomes[task.robot_id] = plan_multi_leg(scenario.grid, task, spec)
    found = {rid: out for rid, out in outcomes.items() if out.found}
    grid = scenario.grid
    mask, w, width, height = grid._mask, grid.width + 2, grid.width, grid.height
    for rid, out in found.items():
        for cell in out.path:
            x, y = cell
            # The range test stays: the padded index of a cell two or more
            # steps off the grid lands on a cell of another row.
            if not (0 <= x < width and 0 <= y < height and mask[(y + 1) * w + x + 1]):
                raise RuntimeError(f"robot {rid}: planned path crosses blocked cell {cell}")
    failed = tuple(rid for rid, out in outcomes.items() if not out.found)
    horizon = max((out.edges for out in found.values()), default=0)
    timelines = tuple(path_to_timeline(rid, out.path, horizon) for rid, out in found.items())
    return SimulationReport(
        outcomes=outcomes,
        timelines=timelines,
        collisions=detect_collisions(timelines),
        makespan=horizon,
        failed_robots=failed,
    )
