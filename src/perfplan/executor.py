"""Discrete-time replay of planned paths and inter-robot collision detection.

Robots advance one cell per tick, all starting at t = 0, and park on their
final cell for the remainder of the horizon (a parked robot stays collidable).
Two robots collide either by occupying one cell during the same tick (vertex)
or by exchanging adjacent cells across a tick boundary (edge/swap); both kinds
are reported because a head-on meeting on a grid is always one of the two.

_tick_events is the one rule that builds a tick's events: set operations
over the tick's cells and moves flag a collision, and only then are robots
indexed by cell and by move, O(R) per tick. On a small group (by robot
count) detect_collisions runs it only on the ticks that the pair scan flags
by comparing every robot pair tick by tick, O(R^2*T), which costs less
there. On a large group it runs it on every tick, over the robots still
moving: a robot that has parked enters a cell -> robots index once, which
the rule checks the moving robots against, and the events of two parked
robots on one cell are appended once, for every tick to the horizon.

replay checks and replays plans already in hand; simulate plans every task
and hands its plans to replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, count, repeat
from operator import itemgetter, ne

from .gridworld import Scenario
from .planner import NO_PERFORATION, PerforationSpec, manhattan, plan_multi_leg

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


# Slots: two robots parked on one cell make an event per tick to the
# horizon, so a replay can hold thousands, and a slotted event is 40 bytes
# smaller than one with a dict.
@dataclass(frozen=True, slots=True)
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
# at or below it, only on the ticks that the pair scan flags. The value is
# the largest group size at which the pair scan was still the faster on
# both the built-in warehouse and a 144x126 tiled one; README "Benchmark"
# has that table and the single-scan designs that were slower on some
# group size.
_PER_TICK_ROBOTS = 5


def detect_collisions(timelines) -> tuple:
    """Every vertex and swap event over all robot pairs, sorted by (t, robots).

    Timelines must share one horizon and distinct robot ids; pad them via
    path_to_timeline first. Groups of more than _PER_TICK_ROBOTS build
    events on every tick, for the robots still moving, and index the parked
    ones (_moving_then_parked); smaller ones build them only on the ticks
    that _pair_scan flags. _tick_events builds a tick's events in both.
    """
    tls = list(timelines)
    if len({tl.horizon for tl in tls}) > 1:
        raise ValueError("timelines have mismatched horizons; pad them first")
    tls.sort(key=lambda tl: tl.robot_id)
    ids = [tl.robot_id for tl in tls]
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise ValueError(f"duplicate robot id {a}")
    cols = [tl.positions for tl in tls]
    events: list = []
    if len(tls) > _PER_TICK_ROBOTS:
        _moving_then_parked(ids, cols, events)
    else:
        for t in _pair_scan(cols):
            prev = [c[t - 1] for c in cols] if t else None
            _tick_events(t, ids, prev, [c[t] for c in cols], events)
    events.sort(key=lambda e: (e.t, e.robots, e.kind))
    return tuple(events)


def _parking_tick(positions) -> int:
    """The first tick from which `positions` holds its last cell to the end."""
    trailing = next(compress(count(), map(ne, reversed(positions), repeat(positions[-1]))), len(positions))
    return len(positions) - trailing


def _moving_then_parked(ids, cols, events) -> None:
    """Append every event of the timelines `cols` of robots `ids`.

    A robot moves up to its parking tick, the tick of its last step, and is
    parked after it. _tick_events runs each tick over the moving robots
    alone, against `parked`, a cell -> robot ids index that each robot
    enters once. The events of two robots parked on one cell are appended
    once, at the later one's entry, for every tick up to the horizon.
    """
    horizon = len(cols[0]) - 1
    # In descending parking tick, the robots moving at a tick are a prefix
    # of its row, which shrinks as they park.
    parks, ids, cols = zip(*sorted(zip(map(_parking_tick, cols), ids, cols), key=itemgetter(0), reverse=True))
    parked: dict = {}
    moving = len(ids)
    prev = None
    for t, row in enumerate(zip(*cols)):
        cur = row[:moving]
        _tick_events(t, ids[:moving], prev, cur, events, parked)
        while moving and parks[moving - 1] == t:
            moving -= 1
            rid, cell = ids[moving], cols[moving][-1]
            here = parked.setdefault(cell, [])
            at = (cell,)  # shared by the pair's events at every tick
            for other in here:
                pair = (other, rid) if other < rid else (rid, other)
                events.extend(CollisionEvent(k, VERTEX, pair, at) for k in range(t + 1, horizon + 1))
            here.append(rid)
        if not moving:
            break
        prev = row[:moving]


def _pair_scan(cols) -> set:
    """The ticks at which some pair of `cols` shares a cell or swaps cells."""
    ticks = set()
    for a, b in combinations(cols, 2):
        pa = pb = None
        for t, ca, cb in zip(count(), a, b):
            if ca == cb or (ca == pb and cb == pa):
                ticks.add(t)
            pa, pb = ca, cb
    return ticks


def _tick_events(t, ids, prev, cur, events, parked=None) -> None:
    """Append tick t's events, given every robot's cell at t - 1 (`prev`,
    None at t = 0) and at t (`cur`), in the order of `ids`, and a cell ->
    robot ids index of the robots `parked` there since before t, if any.
    `ids` may come in any order; a pair is written lower id first. Set
    operations flag a collision; only then are robots indexed by cell, or
    the robots making a move whose reverse is made indexed by move."""
    cells = set(cur)
    # Fewer distinct cells than robots: two robots share a cell.
    if len(cells) < len(ids):
        at_cell: dict = {}
        for rid, cell in zip(ids, cur):
            at_cell.setdefault(cell, []).append(rid)
        for cell, here in at_cell.items():
            for a, b in combinations(here, 2):
                events.append(CollisionEvent(t, VERTEX, (a, b) if a < b else (b, a), (cell,)))
    # A robot on a cell that parked robots hold.
    if parked and (held := parked.keys() & cells):
        for b, cell in compress(zip(ids, cur), map(held.__contains__, cur)):
            for a in parked[cell]:
                events.append(CollisionEvent(t, VERTEX, (a, b) if a < b else (b, a), (cell,)))
    # A swap is a move prev -> cur whose reverse cur -> prev is also made,
    # so it needs a cell that is in both rows; a stationary robot's
    # (cell, cell) is no move.
    if prev is not None and not cells.isdisjoint(prev):
        moves = {(p, c) for p, c in zip(prev, cur) if p != c}
        if swaps := moves.intersection(zip(cur, prev)):
            movers: dict = {}
            for rid, move in compress(zip(ids, zip(prev, cur)), map(swaps.__contains__, zip(prev, cur))):
                movers.setdefault(move, []).append(rid)
            for (p, c), forward in movers.items():
                for b in movers.get((c, p), ()):
                    for a in forward:
                        if a < b:
                            events.append(CollisionEvent(t, EDGE, (a, b), (p, c)))


def simulate(scenario: Scenario, spec: PerforationSpec = NO_PERFORATION) -> SimulationReport:
    """Plan every task with `spec`, in robot-id order, and replay the plans."""
    grid = scenario.grid
    return replay(scenario, {task.robot_id: plan_multi_leg(grid, task, spec) for task in scenario.tasks})


def replay(scenario: Scenario, outcomes: dict) -> SimulationReport:
    """Replay planned `outcomes` (robot_id -> PlanOutcome, in robot-id order)
    on the scenario's grid, and report conflicts.

    A robot whose plan failed is recorded in failed_robots and excluded from
    collision analysis; the other robots are still replayed, so a planning
    failure is never mislabelled as a collision. A found path through a
    blocked, off-grid or non-integer cell raises RuntimeError; Timeline
    checks that its steps are adjacent.
    """
    found = {rid: out for rid, out in outcomes.items() if out.found}
    grid = scenario.grid
    mask, w, width, height = grid._mask, grid.width + 2, grid.width, grid.height
    for rid, out in found.items():
        # One try per path, not a type test per cell: a coordinate that is
        # no int fails the range test or the mask index with TypeError.
        try:
            for cell in out.path:
                x, y = cell
                # The range test stays: the padded index of a cell two or more
                # steps off the grid lands on a cell of another row.
                if not (0 <= x < width and 0 <= y < height and mask[(y + 1) * w + x + 1]):
                    raise RuntimeError(f"robot {rid}: planned path crosses blocked cell {cell}")
        except TypeError:
            raise RuntimeError(f"robot {rid}: planned path crosses blocked cell {cell}") from None
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
