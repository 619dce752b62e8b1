"""Discrete-time replay of planned paths and inter-robot collision detection.

Robots advance one cell per tick, all starting at t = 0, and park on their
final cell for the remainder of the horizon (a parked robot stays collidable).
Two robots collide either by occupying one cell during the same tick (vertex)
or by exchanging adjacent cells across a tick boundary (edge/swap); both kinds
are reported because a head-on meeting on a grid is always one of the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gridworld import Cell, Scenario
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
    failed_robots: tuple = field(default=())

    @property
    def safe(self) -> bool:
        return not self.collisions and not self.failed_robots


def path_to_timeline(robot_id: int, path, horizon: int) -> Timeline:
    """Pad a path to `horizon` ticks by parking the robot at its last cell."""
    cells = [Cell(*c) for c in path]
    if not cells:
        raise ValueError("cannot build a timeline from an empty path")
    if horizon < len(cells) - 1:
        raise ValueError(f"horizon {horizon} shorter than path ({len(cells) - 1} edges)")
    cells.extend([cells[-1]] * (horizon - (len(cells) - 1)))
    return Timeline(robot_id, tuple(cells))


def detect_collisions(timelines) -> tuple:
    """Every vertex and swap event over all robot pairs, sorted by (t, robots).

    Timelines must share one horizon; pad them via path_to_timeline first.
    """
    tls = list(timelines)
    if len(tls) > 1 and len({tl.horizon for tl in tls}) > 1:
        raise ValueError("timelines have mismatched horizons; pad them first")
    events = []
    tls.sort(key=lambda tl: tl.robot_id)
    for i in range(len(tls)):
        for j in range(i + 1, len(tls)):
            a, b = tls[i], tls[j]
            pair = (a.robot_id, b.robot_id)
            for t in range(a.horizon + 1):
                pa, pb = a.positions[t], b.positions[t]
                if pa == pb:
                    events.append(CollisionEvent(t, VERTEX, pair, (pa,)))
                elif t > 0 and pa == b.positions[t - 1] and pb == a.positions[t - 1]:
                    events.append(CollisionEvent(t, EDGE, pair, (a.positions[t - 1], pa)))
    events.sort(key=lambda e: (e.t, e.robots, e.kind))
    return tuple(events)


def simulate(scenario: Scenario, spec: PerforationSpec = NO_PERFORATION) -> SimulationReport:
    """Plan every task with `spec`, replay the paths, and report conflicts.

    A robot whose plan fails is recorded in failed_robots and excluded from
    collision analysis; the other robots are still replayed, so a planning
    failure is never mislabelled as a collision. A found path through a
    blocked cell raises RuntimeError; Timeline checks that its steps are adjacent.
    """
    outcomes: dict[int, PlanOutcome] = {}
    for task in scenario.tasks:
        outcomes[task.robot_id] = plan_multi_leg(scenario.grid, task, spec)
    found = {rid: out for rid, out in outcomes.items() if out.found}
    for rid, out in found.items():
        for cell in out.path:
            if not scenario.grid.is_free(cell):
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
