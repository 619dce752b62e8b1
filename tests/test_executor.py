"""Timeline replay, collision detection, and whole-scenario simulation."""

import random

import pytest

from oracles import collision_fixtures, random_walk_timeline, scan_collisions
from perfplan import executor
from perfplan.executor import (
    _PER_TICK_ROBOTS,
    EDGE,
    VERTEX,
    CollisionEvent,
    Timeline,
    detect_collisions,
    path_to_timeline,
    simulate,
)
from perfplan.gridworld import Cell, Scenario, builtin_scenario, GridMap, RobotTask
from perfplan.planner import FOUND, MODULO, PerforationSpec, PlanOutcome, astar_exact


def as_tuples(events):
    return [(e.t, e.kind, e.robots, e.cells) for e in events]


class TestTimeline:
    def test_horizon(self):
        tl = Timeline(1, (Cell(0, 0), Cell(1, 0), Cell(1, 1)))
        assert tl.horizon == 2

    def test_waiting_in_place_is_lawful(self):
        Timeline(1, (Cell(0, 0), Cell(0, 0), Cell(1, 0)))

    def test_rejects_empty_and_teleporting(self):
        with pytest.raises(ValueError):
            Timeline(1, ())
        with pytest.raises(ValueError, match="non-adjacent"):
            Timeline(1, (Cell(0, 0), Cell(2, 0)))
        with pytest.raises(ValueError, match="non-adjacent"):
            Timeline(1, (Cell(0, 0), Cell(1, 1)))


class TestPathToTimeline:
    def test_single_cell_path_parks_for_whole_horizon(self):
        tl = path_to_timeline(1, [Cell(2, 2)], horizon=3)
        assert tl.positions == (Cell(2, 2),) * 4

    def test_exact_fit_horizon(self):
        path = [Cell(0, 0), Cell(1, 0), Cell(2, 0), Cell(3, 0), Cell(4, 0)]
        tl = path_to_timeline(1, path, horizon=4)
        assert tl.positions == tuple(path)

    def test_padding_parks_at_goal(self):
        tl = path_to_timeline(1, [Cell(0, 0), Cell(1, 0)], horizon=4)
        assert tl.positions == (Cell(0, 0), Cell(1, 0), Cell(1, 0), Cell(1, 0), Cell(1, 0))

    def test_horizon_shorter_than_path_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            path_to_timeline(1, [Cell(0, 0), Cell(1, 0), Cell(2, 0)], horizon=1)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            path_to_timeline(1, [], horizon=3)

    def test_replayed_plan_reaches_goal_and_parks(self):
        grid = builtin_scenario("warehouse").grid
        out = astar_exact(grid, Cell(5, 4), Cell(21, 19))
        tl = path_to_timeline(1, out.path, horizon=out.edges + 5)
        assert tl.positions[out.edges] == Cell(21, 19)
        assert tl.positions[-1] == Cell(21, 19)


class TestDetectCollisions:
    def test_disjoint_paths_are_safe(self):
        a = path_to_timeline(1, [Cell(0, 0), Cell(1, 0)], horizon=2)
        b = path_to_timeline(2, [Cell(0, 3), Cell(1, 3)], horizon=2)
        assert detect_collisions([a, b]) == ()

    def test_head_on_swap(self):
        a = Timeline(1, (Cell(0, 0), Cell(1, 0), Cell(2, 0)))
        b = Timeline(2, (Cell(2, 0), Cell(1, 0), Cell(0, 0)))
        events = detect_collisions([a, b])
        # t=1: both robots stand on (1,0) -- a vertex conflict, not a swap.
        assert as_tuples(events) == [(1, VERTEX, (1, 2), (Cell(1, 0),))]

    def test_pure_swap_without_shared_cell(self):
        a = Timeline(1, (Cell(0, 0), Cell(1, 0)))
        b = Timeline(2, (Cell(1, 0), Cell(0, 0)))
        events = detect_collisions([a, b])
        assert as_tuples(events) == [(1, EDGE, (1, 2), (Cell(0, 0), Cell(1, 0)))]

    def test_runs_into_parked_robot(self):
        mover = path_to_timeline(1, [Cell(0, 0), Cell(1, 0), Cell(2, 0)], horizon=5)
        parked = path_to_timeline(2, [Cell(2, 0)], horizon=5)
        events = detect_collisions([mover, parked])
        assert [(e.t, e.kind) for e in events] == [(t, VERTEX) for t in range(2, 6)]
        assert all(e.cells == (Cell(2, 0),) for e in events)

    def test_late_arrival_at_parked_cell(self):
        # Robot 1 parks on (3,3) from t=2; robot 2 first touches it at t=5,
        # producing exactly one vertex event.
        a = path_to_timeline(1, [Cell(3, 1), Cell(3, 2), Cell(3, 3)], horizon=5)
        b = Timeline(2, (Cell(0, 3), Cell(0, 3), Cell(1, 3), Cell(2, 3), Cell(2, 3), Cell(3, 3)))
        events = detect_collisions([a, b])
        assert as_tuples(events) == [(5, VERTEX, (1, 2), (Cell(3, 3),))]

    def test_mismatched_horizons_rejected(self):
        a = path_to_timeline(1, [Cell(0, 0)], horizon=3)
        b = path_to_timeline(2, [Cell(4, 4)], horizon=4)
        with pytest.raises(ValueError, match="horizon"):
            detect_collisions([a, b])

    def test_robot_order_does_not_matter(self):
        a = Timeline(1, (Cell(0, 0), Cell(1, 0), Cell(2, 0)))
        b = Timeline(2, (Cell(2, 0), Cell(1, 0), Cell(0, 0)))
        assert detect_collisions([a, b]) == detect_collisions([b, a])

    def test_event_encoding(self):
        ev = CollisionEvent(3, VERTEX, (1, 2), (Cell(5, 5),))
        assert (ev.t, ev.kind, ev.robots, ev.cells) == (3, VERTEX, (1, 2), (Cell(5, 5),))

    def test_matches_exhaustive_scan_on_fixture_corpus(self):
        # 60 timeline groups (random walks + forced vertex/swap cases) checked
        # event-for-event against the naive per-tick oracle.
        fixtures = collision_fixtures(60, seed=424242)
        kinds_seen = set()
        for timelines in fixtures:
            got = as_tuples(detect_collisions(timelines))
            want = scan_collisions(timelines)
            assert got == want
            kinds_seen.update(kind for _, kind, _, _ in got)
        assert kinds_seen == {VERTEX, EDGE}

    # Groups of more than _PER_TICK_ROBOTS run _tick_events on every tick;
    # `parked` fills a group up to that size with robots standing still far
    # away.
    @staticmethod
    def parked(count, horizon):
        return [path_to_timeline(100 + k, [Cell(2 * k, 50)], horizon) for k in range(count)]

    def test_three_robots_on_one_cell_give_three_pairs_per_tick(self):
        group = [
            Timeline(1, (Cell(0, 0), Cell(1, 0), Cell(2, 0), Cell(2, 0))),
            Timeline(2, (Cell(4, 0), Cell(3, 0), Cell(2, 0), Cell(2, 0))),
            Timeline(3, (Cell(2, 2), Cell(2, 1), Cell(2, 0), Cell(2, 0))),
        ]
        group += self.parked(_PER_TICK_ROBOTS, 3)
        events = detect_collisions(group)
        want = [(t, VERTEX, pair, (Cell(2, 0),)) for t in (2, 3) for pair in ((1, 2), (1, 3), (2, 3))]
        assert as_tuples(events) == want == scan_collisions(group)

    def test_every_robot_making_one_move_swaps_with_its_reverse(self):
        # Robots 1 and 3 both step (0,0)->(1,0) while robot 2 steps back:
        # two edge events, each cell pair led by the lower id's pre-swap cell.
        group = [
            Timeline(1, (Cell(0, 0), Cell(1, 0))),
            Timeline(2, (Cell(1, 0), Cell(0, 0))),
            Timeline(3, (Cell(0, 0), Cell(1, 0))),
        ]
        group += self.parked(_PER_TICK_ROBOTS, 1)
        events = detect_collisions(group)
        assert as_tuples(events) == [
            (0, VERTEX, (1, 3), (Cell(0, 0),)),
            (1, EDGE, (1, 2), (Cell(0, 0), Cell(1, 0))),
            (1, VERTEX, (1, 3), (Cell(1, 0),)),
            (1, EDGE, (2, 3), (Cell(1, 0), Cell(0, 0))),
        ]
        assert as_tuples(events) == scan_collisions(group)

    def test_crossing_the_threshold_leaves_events_unchanged(self, monkeypatch):
        rng = random.Random(7)
        grid = GridMap(width=3, height=3, blocked=frozenset())
        group = [random_walk_timeline(grid, rng, rid, 12) for rid in range(1, _PER_TICK_ROBOTS + 1)]
        scans = []
        pair_scan = executor._pair_scan

        def counted(cols):
            scans.append(len(cols))
            return pair_scan(cols)

        monkeypatch.setattr(executor, "_pair_scan", counted)
        events = detect_collisions(group)
        assert {e.kind for e in events} == {VERTEX, EDGE}
        assert detect_collisions(group + self.parked(1, 12)) == events
        assert scans == [_PER_TICK_ROBOTS]

    # Either side of the threshold, by moving the threshold: 0 sends every
    # group through the per-tick path, 10**6 every group through the pair
    # scan's tick filter.
    @pytest.mark.parametrize("threshold", [0, 10**6])
    def test_both_paths_match_exhaustive_scan_on_fixture_corpus(self, monkeypatch, threshold):
        monkeypatch.setattr(executor, "_PER_TICK_ROBOTS", threshold)
        for timelines in collision_fixtures(60, seed=424242):
            assert as_tuples(detect_collisions(timelines)) == scan_collisions(timelines)


class TestSimulate:
    def test_exact_builtin_scenarios_are_collision_free(self):
        for name in ("warehouse", "room"):
            report = simulate(builtin_scenario(name))
            assert report.collisions == ()
            assert report.failed_robots == ()
            assert report.safe

    def test_makespan_is_longest_plan(self):
        scenario = builtin_scenario("warehouse")
        report = simulate(scenario)
        assert report.makespan == max(out.edges for out in report.outcomes.values())
        for tl in report.timelines:
            assert tl.horizon == report.makespan

    def test_timelines_end_on_goals(self):
        scenario = builtin_scenario("warehouse")
        report = simulate(scenario)
        for tl in report.timelines:
            assert tl.positions[-1] == scenario.task_for(tl.robot_id).goal

    def test_failed_robot_flagged_not_collided(self):
        # (1,4)->(16,9) deterministically fails at modulo 17/20; the other
        # robot still replays, and no collision is reported for the failure.
        grid = builtin_scenario("warehouse").grid
        scenario = Scenario(
            "fail-case",
            grid,
            (
                RobotTask(1, Cell(1, 4), Cell(16, 9)),
                RobotTask(2, Cell(5, 4), Cell(21, 19)),
            ),
        )
        report = simulate(scenario, PerforationSpec(MODULO, 17, 20))
        assert report.failed_robots == (1,)
        assert not report.safe
        assert [tl.robot_id for tl in report.timelines] == [2]
        assert report.collisions == ()

    def test_found_path_through_blocked_cell_is_rejected(self, monkeypatch):
        grid = GridMap(width=3, height=2, blocked=frozenset({Cell(1, 0)}))
        scenario = Scenario("wall", grid, (RobotTask(1, Cell(0, 0), Cell(2, 0)),))
        through_wall = PlanOutcome(FOUND, (Cell(0, 0), Cell(1, 0), Cell(2, 0)), 3, 0)
        monkeypatch.setattr(executor, "plan_multi_leg", lambda *a: through_wall)
        with pytest.raises(RuntimeError, match=r"robot 1: .*blocked cell 1,0$"):
            simulate(scenario)

    @pytest.mark.parametrize("off", [Cell(-2, 0), Cell(-3, 1), Cell(5, 0), Cell(0, -3), Cell(0, 3)])
    def test_found_path_off_the_grid_is_rejected(self, monkeypatch, off):
        # On this 3x2 grid the padded mask index of (-3, 1) and (5, 0) lands
        # on a free cell of another row, (0, -3) wraps to the last row and
        # (0, 3) lies past the mask's end: only the range test rejects them.
        grid = GridMap(width=3, height=2, blocked=frozenset())
        scenario = Scenario("edge", grid, (RobotTask(1, Cell(0, 0), Cell(0, 1)),))
        off_grid = PlanOutcome(FOUND, (Cell(0, 0), off, Cell(0, 1)), 3, 0)
        monkeypatch.setattr(executor, "plan_multi_leg", lambda *a: off_grid)
        with pytest.raises(RuntimeError, match=rf"robot 1: .*blocked cell {off.x},{off.y}$"):
            simulate(scenario)

    def test_single_robot_never_collides(self):
        grid = GridMap(width=4, height=1, blocked=frozenset())
        scenario = Scenario("solo", grid, (RobotTask(1, Cell(0, 0), Cell(3, 0)),))
        report = simulate(scenario)
        assert report.safe and report.makespan == 3

    def test_deterministic(self):
        scenario = builtin_scenario("warehouse")
        spec = PerforationSpec(MODULO, 3, 4)
        assert simulate(scenario, spec).collisions == simulate(scenario, spec).collisions
