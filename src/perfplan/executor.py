"""Discrete-time replay of planned paths and inter-robot collision detection.

Robots advance one cell per tick, all starting at t = 0, and park on their
final cell for the remainder of the horizon (a parked robot stays collidable).
Two robots collide either by occupying one cell during the same tick (vertex)
or by exchanging adjacent cells across a tick boundary (edge/swap); both kinds
are reported because a head-on meeting on a grid is always one of the two.

_tick_events is the one rule that builds a tick's events, over any
hashable cell keys: set operations over the tick's keys flag a collision,
and only then are robots indexed, O(R) per tick, and the events' keys
decoded into cells. It indexes only the robots that can be in an event:
for vertex events, the robots on a key that more than one robot holds;
for swaps, the robots that move between two keys found in both the
tick's and the previous tick's row, since each swap's two cells are in
both. On a small group (by robot count) _events runs it only on the
ticks that the pair scan flags by comparing every robot pair tick by
tick, O(R^2*T), which costs less there. On a large group it runs it on
every tick, over the robots still moving: a robot that has parked enters
a key -> robots index once, which the rule checks the moving robots
against, and the events of two parked robots on one cell are appended
once, for every tick to the horizon.

replay checks and replays plans already in hand; simulate plans every task
and hands its plans to replay. replay has the grid turn each found path
into its padded mask indices once (GridMap._free_indices, the one pass
that checks them free), and those ints serve two more passes: the grid's
step check (GridMap._first_bad_step, by index difference) and detection,
which runs the event rule on the index columns and decodes only the
events' cells into the grid's shared Cells. replay computes no index
itself. A Timeline built directly judges its steps by manhattan, and
detect_collisions runs the event rule on its positions.
"""

from __future__ import annotations

from collections import Counter
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


def detect_collisions(timelines, *, _keys=None) -> tuple:
    """Every vertex and swap event over all robot pairs, sorted by (t, robots).

    Timelines must share one horizon and distinct robot ids; pad them via
    path_to_timeline first. The event rule runs on the timelines'
    positions; replay passes `_keys`, the same ticks as columns of its
    grid's mask indices (in the timelines' order) and the decoder from an
    index to the grid's shared Cell, and the rule runs on those.
    """
    tls = list(timelines)
    if len({tl.horizon for tl in tls}) > 1:
        raise ValueError("timelines have mismatched horizons; pad them first")
    cols, cell = _keys if _keys is not None else ([tl.positions for tl in tls], _as_is)
    order = sorted(range(len(tls)), key=lambda i: tls[i].robot_id)
    ids = [tls[i].robot_id for i in order]
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise ValueError(f"duplicate robot id {a}")
    return _events(ids, [cols[i] for i in order], cell)


def _events(ids, cols, cell) -> tuple:
    """Every event of the key columns `cols` of robots `ids` (ascending),
    sorted by (t, robots, kind); `cell` decodes a key into its cell.

    Groups of more than _PER_TICK_ROBOTS build events on every tick, for
    the robots still moving, and index the parked ones
    (_moving_then_parked); smaller ones build them only on the ticks that
    _pair_scan flags. _tick_events builds a tick's events in both.
    """
    events: list = []
    if len(ids) > _PER_TICK_ROBOTS:
        _moving_then_parked(ids, cols, events, cell)
    else:
        for t in _pair_scan(cols):
            prev = [c[t - 1] for c in cols] if t else None
            _tick_events(t, ids, prev, [c[t] for c in cols], events, cell)
    events.sort(key=lambda e: (e.t, e.robots, e.kind))
    return tuple(events)


def _as_is(cell):
    """An event's cell where the rule runs on the positions themselves."""
    return cell


def _parking_tick(positions) -> int:
    """The first tick from which `positions` holds its last cell to the end."""
    trailing = next(compress(count(), map(ne, reversed(positions), repeat(positions[-1]))), len(positions))
    return len(positions) - trailing


def _moving_then_parked(ids, cols, events, cell) -> None:
    """Append every event of the key columns `cols` of robots `ids`; `cell`
    decodes a key into the events' cell.

    A robot moves up to its parking tick, the tick of its last step, and is
    parked after it. _tick_events runs each tick over the moving robots
    alone, against `parked`, a key -> robot ids index that each robot
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
        _tick_events(t, ids[:moving], prev, cur, events, cell, parked)
        while moving and parks[moving - 1] == t:
            moving -= 1
            rid, key = ids[moving], cols[moving][-1]
            here = parked.setdefault(key, [])
            at = (cell(key),)  # shared by the pair's events at every tick
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


def _tick_events(t, ids, prev, cur, events, cell, parked=None) -> None:
    """Append tick t's events, given every robot's cell key at t - 1
    (`prev`, None at t = 0) and at t (`cur`), in the order of `ids`, a
    decoder `cell` from a key to the events' cell, and a key -> robot ids
    index of the robots `parked` there since before t, if any. `ids` may
    come in any order; a pair is written lower id first.

    Set operations flag a collision, and only then are robots indexed, and
    only those that can be in an event. A vertex event needs two robots on
    one key, so the vertex index holds only the robots on a key seen more
    than once. A swap a: p -> c, b: c -> p puts both p and c in `prev` and
    in `cur`, so the swap index holds only the robots that move between
    two keys of both rows, and pairs them only if they make two distinct
    moves. Neither filter drops a robot that is in an event, and the
    events keep their order."""
    cells = set(cur)
    # Fewer distinct keys than robots: two robots share a cell.
    if len(cells) < len(ids):
        shared = {key for key, n in Counter(cur).items() if n > 1}
        at_cell: dict = {}
        for rid, key in compress(zip(ids, cur), map(shared.__contains__, cur)):
            at_cell.setdefault(key, []).append(rid)
        for key, here in at_cell.items():
            for a, b in combinations(here, 2):
                events.append(CollisionEvent(t, VERTEX, (a, b) if a < b else (b, a), (cell(key),)))
    # A robot on a cell that parked robots hold.
    if parked and (held := parked.keys() & cells):
        for b, key in compress(zip(ids, cur), map(held.__contains__, cur)):
            for a in parked[key]:
                events.append(CollisionEvent(t, VERTEX, (a, b) if a < b else (b, a), (cell(key),)))
    # A swap needs a key in both rows; a stationary robot's (p, p) is no
    # move.
    if prev is not None and not cells.isdisjoint(prev):
        common = cells.intersection(prev)
        movers: dict = {}
        for rid, p, c in zip(ids, prev, cur):
            if p != c and p in common and c in common:
                movers.setdefault((p, c), []).append(rid)
        if len(movers) > 1:
            for (p, c), forward in movers.items():
                for b in movers.get((c, p), ()):
                    for a in forward:
                        if a < b:
                            events.append(CollisionEvent(t, EDGE, (a, b), (cell(p), cell(c))))


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
    blocked, off-grid or non-integer cell raises RuntimeError; every path's
    cells are checked before any path's steps, and a non-adjacent step
    raises ValueError, as Timeline does.
    """
    found = {rid: out for rid, out in outcomes.items() if out.found}
    grid = scenario.grid
    keyed = {rid: _mask_indices(grid, rid, out.path) for rid, out in found.items()}
    failed = tuple(rid for rid, out in outcomes.items() if not out.found)
    horizon = max((out.edges for out in found.values()), default=0)
    timelines, cols = [], []
    for rid, out in found.items():
        path, keys = out.path, keyed[rid]
        if not path:
            raise ValueError("cannot build a timeline from an empty path")
        if t := grid._first_bad_step(keys):
            raise ValueError(f"non-adjacent step {path[t - 1]} -> {path[t]} at tick {t}")
        pad = horizon - len(keys) + 1
        keys.extend(repeat(keys[-1], pad))
        cols.append(keys)
        # The steps are checked: the timeline is built without Timeline's
        # second check.
        tl = object.__new__(Timeline)
        tl.__dict__.update(robot_id=rid, positions=(*path, *repeat(path[-1], pad)))
        timelines.append(tl)
    timelines = tuple(timelines)
    return SimulationReport(
        outcomes=outcomes,
        timelines=timelines,
        # Through the module global, which the per-layer tracing wraps.
        collisions=detect_collisions(timelines, _keys=(cols, grid._cell)),
        makespan=horizon,
        failed_robots=failed,
    )


def _mask_indices(grid, rid, path) -> list:
    """`path` as the padded mask indices of `grid`, or RuntimeError naming
    the first cell that is blocked, off the grid or not of int coordinates.

    One pass over the whole path, which fails if it drops a cell or raises;
    only then are the cells tested one at a time, to name the first bad one.
    """
    try:
        keys = grid._free_indices(path)
    except (TypeError, ValueError):
        keys = None
    if keys is None or len(keys) < len(path):
        for cell in path:
            # A cell that is no pair: a sequence of another length raises
            # ValueError here, anything not iterable is reported as bad.
            try:
                free = grid.is_free(cell)
            except TypeError:
                free = False
            if not free:
                raise RuntimeError(f"robot {rid}: planned path crosses blocked cell {cell}")
    return keys
