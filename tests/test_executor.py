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
    replay,
    simulate,
)
from perfplan.gridworld import Cell, Scenario, builtin_scenario, GridMap, RobotTask
from perfplan.planner import (
    FOUND, MODULO, RANDOM, TRUNCATION, PerforationSpec, PlanOutcome, astar_exact, plan_multi_leg,
)


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

    # Groups of 3 to 8 robots straddle the threshold: each path is forced on
    # every size. Walks of unequal length, padded to one horizon, park
    # robots early, so the per-tick path indexes parked robots too.
    @pytest.mark.parametrize("threshold", [0, 10**6])
    @pytest.mark.parametrize("robots", range(3, 9))
    def test_both_paths_match_exhaustive_scan_on_three_to_eight_robots(self, monkeypatch, threshold, robots):
        monkeypatch.setattr(executor, "_PER_TICK_ROBOTS", threshold)
        rng = random.Random(robots)
        grid = GridMap(width=4, height=4, blocked=frozenset())
        kinds = set()
        for _ in range(30):
            horizon = rng.randrange(2, 16)
            walks = [random_walk_timeline(grid, rng, rid, rng.randrange(horizon + 1)) for rid in range(1, robots + 1)]
            group = [path_to_timeline(walk.robot_id, walk.positions, horizon) for walk in walks]
            events = as_tuples(detect_collisions(group))
            assert events == scan_collisions(group)
            kinds.update(kind for _, kind, _, _ in events)
        assert kinds == {VERTEX, EDGE}

    @pytest.mark.parametrize("threshold", [0, 10**6])
    def test_duplicate_robot_ids_rejected_on_both_paths(self, monkeypatch, threshold):
        monkeypatch.setattr(executor, "_PER_TICK_ROBOTS", threshold)
        same_cell = [path_to_timeline(1, [Cell(0, 0)], 2), path_to_timeline(1, [Cell(0, 0)], 2)]
        swap = [Timeline(1, (Cell(0, 0), Cell(1, 0))), Timeline(1, (Cell(1, 0), Cell(0, 0)))]
        for group in (same_cell, swap):
            with pytest.raises(ValueError, match="duplicate robot id 1$"):
                detect_collisions(group + self.parked(2, group[0].horizon))

    # _tick_events indexes only the robots that can be in an event: the
    # robots on a key held more than once, and the robots moving between two
    # keys of both the tick's and the previous tick's row. These inputs put
    # many robots through each filter, on both paths.
    @pytest.mark.parametrize("threshold", [0, 10**6])
    def test_rotation_around_a_block_has_no_swap(self, monkeypatch, threshold):
        # Four robots circle a 2x2 block: every cell is in both rows and
        # every robot moves between two of them, but no move is reversed.
        monkeypatch.setattr(executor, "_PER_TICK_ROBOTS", threshold)
        ring = [Cell(0, 0), Cell(1, 0), Cell(1, 1), Cell(0, 1)]
        group = [Timeline(rid, tuple(ring[(rid + t) % 4] for t in range(6))) for rid in range(1, 5)]
        assert detect_collisions(group) == ()
        assert scan_collisions(group) == []

    @pytest.mark.parametrize("threshold", [0, 10**6])
    def test_chain_of_followers_has_no_event(self, monkeypatch, threshold):
        # Seven robots in a row each enter the cell the one ahead just left,
        # then park one behind the other.
        monkeypatch.setattr(executor, "_PER_TICK_ROBOTS", threshold)
        group = [path_to_timeline(rid, [Cell(x, 2) for x in range(rid, rid + 4)], 5) for rid in range(1, 8)]
        assert detect_collisions(group) == ()
        assert scan_collisions(group) == []

    @pytest.mark.parametrize("threshold", [0, 10**6])
    def test_swap_with_a_follower_into_a_swapped_cell(self, monkeypatch, threshold):
        # Robots 4 and 2 swap (1,0) and (2,0) at t = 1 while robot 3 follows
        # robot 2 into (2,0), where robot 4 arrives too.
        monkeypatch.setattr(executor, "_PER_TICK_ROBOTS", threshold)
        group = [
            Timeline(4, (Cell(1, 0), Cell(2, 0), Cell(2, 1))),
            Timeline(2, (Cell(2, 0), Cell(1, 0), Cell(0, 0))),
            Timeline(3, (Cell(3, 0), Cell(2, 0), Cell(2, 0))),
            Timeline(1, (Cell(5, 5), Cell(5, 4), Cell(5, 3))),
        ]
        events = as_tuples(detect_collisions(group))
        assert events == [
            (1, EDGE, (2, 4), (Cell(2, 0), Cell(1, 0))),
            (1, VERTEX, (3, 4), (Cell(2, 0),)),
        ]
        assert events == scan_collisions(group)

    @pytest.mark.parametrize("threshold", [0, 10**6])
    def test_two_shared_keys_one_held_by_three_robots(self, monkeypatch, threshold):
        # At t = 1 robots 5, 2 and 7 meet on (2,2) and robots 6 and 3 on
        # (6,2); robots 1 and 4 stay apart.
        monkeypatch.setattr(executor, "_PER_TICK_ROBOTS", threshold)
        group = [
            Timeline(5, (Cell(1, 2), Cell(2, 2))),
            Timeline(6, (Cell(7, 2), Cell(6, 2))),
            Timeline(1, (Cell(0, 0), Cell(0, 1))),
            Timeline(2, (Cell(2, 1), Cell(2, 2))),
            Timeline(3, (Cell(5, 2), Cell(6, 2))),
            Timeline(7, (Cell(3, 2), Cell(2, 2))),
            Timeline(4, (Cell(9, 9), Cell(9, 9))),
        ]
        events = as_tuples(detect_collisions(group))
        assert events == [
            (1, VERTEX, (2, 5), (Cell(2, 2),)),
            (1, VERTEX, (2, 7), (Cell(2, 2),)),
            (1, VERTEX, (3, 6), (Cell(6, 2),)),
            (1, VERTEX, (5, 7), (Cell(2, 2),)),
        ]
        assert events == scan_collisions(group)

    # Groups of more than _PER_TICK_ROBOTS index each robot once it has
    # parked. `walkers` fills a group with robots that move on every tick,
    # each along its own row, so no two of them ever meet.
    @staticmethod
    def walkers(count, horizon, seed):
        rng = random.Random(seed)
        group = []
        for k in range(count):
            x = rng.randrange(20)
            path = [Cell(x + step, 30 + k) for step in range(horizon + 1)]
            group.append(Timeline(200 + k, tuple(path)))
        return group

    def per_tick_group(self, *timelines):
        horizon = timelines[0].horizon
        group = list(timelines) + self.walkers(4, horizon, seed=11) + self.parked(4, horizon)
        assert len(group) > _PER_TICK_ROBOTS
        return group

    @staticmethod
    def events_of(events, pair):
        return [e for e in as_tuples(events) if e[2] == pair]

    def test_later_arrival_on_a_parked_robots_cell_collides_to_the_horizon(self):
        goal = Cell(5, 10)
        first = path_to_timeline(1, [Cell(2, 10), Cell(3, 10), Cell(4, 10), goal], 12)
        second = path_to_timeline(2, [Cell(5, 10 + k) for k in range(7, -1, -1)], 12)
        assert first.positions.index(goal) == 3 and second.positions.index(goal) == 7
        group = self.per_tick_group(first, second)
        events = detect_collisions(group)
        assert self.events_of(events, (1, 2)) == [(t, VERTEX, (1, 2), (goal,)) for t in range(7, 13)]
        assert as_tuples(events) == scan_collisions(group)

    def test_two_robots_parking_on_one_cell_at_one_tick(self):
        goal = Cell(5, 10)
        a = path_to_timeline(3, [Cell(3, 10), Cell(4, 10), goal], 9)
        b = path_to_timeline(1, [Cell(7, 10), Cell(6, 10), goal], 9)
        group = self.per_tick_group(a, b)
        events = detect_collisions(group)
        assert self.events_of(events, (1, 3)) == [(t, VERTEX, (1, 3), (goal,)) for t in range(2, 10)]
        assert as_tuples(events) == scan_collisions(group)

    def test_moving_robot_crossing_a_parked_robots_cell(self):
        # At t = 3 only robot 2 stands on a parked robot's cell: the walkers
        # and robot 2 occupy distinct cells, so no two moving robots meet.
        parked = path_to_timeline(1, [Cell(5, 10)], 8)
        crossing = Timeline(2, tuple(Cell(x, 10) for x in range(2, 11)))
        group = self.per_tick_group(parked, crossing)
        moving = [tl.positions[3] for tl in group if len(set(tl.positions)) > 1]
        assert len(set(moving)) == len(moving)
        events = detect_collisions(group)
        assert as_tuples(events) == [(3, VERTEX, (1, 2), (Cell(5, 10),))] == scan_collisions(group)

    def test_trailing_waits_that_start_before_the_paths_end(self):
        # The path itself ends in two waits, so robot 1 parks at t = 2,
        # before its last path index (4) and the padding after it.
        waits = path_to_timeline(1, [Cell(2, 10), Cell(3, 10), Cell(4, 10), Cell(4, 10), Cell(4, 10)], 8)
        arrival = path_to_timeline(2, [Cell(4, 13), Cell(4, 12), Cell(4, 11), Cell(4, 10)], 8)
        assert executor._parking_tick(waits.positions) == 2
        group = self.per_tick_group(waits, arrival)
        events = detect_collisions(group)
        assert self.events_of(events, (1, 2)) == [(t, VERTEX, (1, 2), (Cell(4, 10),)) for t in range(3, 9)]
        assert as_tuples(events) == scan_collisions(group)


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

    @pytest.mark.parametrize("off", [Cell(-2, 0), Cell(-3, 1), Cell(5, 0), Cell(0, -3), Cell(0, 3),
                                     Cell(0.5, 0), Cell(0, 0.5), Cell("1", 0)])
    def test_found_path_off_the_grid_is_rejected(self, monkeypatch, off):
        # On this 3x2 grid the padded mask index of (-3, 1) and (5, 0) lands
        # on a free cell of another row, (0, -3) wraps to the last row and
        # (0, 3) lies past the mask's end: only the range test rejects them.
        # A coordinate that is no int fails the mask index or the range
        # test with TypeError, which replay reports as the same error.
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


class TestReplay:
    @pytest.mark.parametrize("spec", [
        PerforationSpec(), PerforationSpec(MODULO, 3, 4), PerforationSpec(MODULO, 17, 20),
        PerforationSpec(TRUNCATION, 1, 2), PerforationSpec(RANDOM, 22, 25, seed=5)])
    @pytest.mark.parametrize("name", ["warehouse", "room"])
    def test_equals_simulate_on_plans_made_at_its_spec(self, name, spec):
        scenario = builtin_scenario(name)
        outcomes = {task.robot_id: plan_multi_leg(scenario.grid, task, spec) for task in scenario.tasks}
        assert replay(scenario, outcomes) == simulate(scenario, spec)

    # A found path is checked at replay: every cell of every robot first,
    # then every robot's steps. `paths` maps robot id -> cells, in id order.
    @staticmethod
    def replay_paths(grid, paths):
        scenario = Scenario("paths", grid, tuple(
            RobotTask(rid, Cell(0, 0), Cell(1, 0)) for rid in paths))
        return replay(scenario, {rid: PlanOutcome(FOUND, tuple(path), 1, 0) for rid, path in paths.items()})

    @pytest.mark.parametrize("path, step", [
        # The row-wrap step from the last column to the first of the next
        # row: adjacent in row-major order, not on the grid.
        ([Cell(2, 0), Cell(3, 0), Cell(0, 1), Cell(1, 1)], "3,0 -> 0,1 at tick 2"),
        ([Cell(3, 1), Cell(0, 2)], "3,1 -> 0,2 at tick 1"),
        ([Cell(0, 2), Cell(3, 1)], "0,2 -> 3,1 at tick 1"),
        ([Cell(0, 0), Cell(0, 0), Cell(2, 2)], "0,0 -> 2,2 at tick 2"),
        ([Cell(1, 1), Cell(2, 2)], "1,1 -> 2,2 at tick 1"),
        ([Cell(0, 0), Cell(1, 0), Cell(2, 0), Cell(2, 1), Cell(2, 1), Cell(0, 1)], "2,1 -> 0,1 at tick 5"),
    ])
    def test_non_adjacent_step_is_rejected_with_its_cells_and_tick(self, path, step):
        grid = GridMap(width=4, height=3, blocked=frozenset())
        lawful = [Cell(3, 2), Cell(2, 2)]
        with pytest.raises(ValueError, match=rf"^non-adjacent step {step}$"):
            self.replay_paths(grid, {1: lawful, 2: path})

    def test_every_cell_is_checked_before_any_step(self):
        grid = GridMap(width=4, height=3, blocked=frozenset({Cell(1, 1)}))
        teleport = [Cell(0, 0), Cell(3, 2)]
        through_wall = [Cell(1, 0), Cell(1, 1), Cell(1, 2)]
        for paths in ({1: teleport, 2: through_wall}, {1: through_wall, 2: teleport}):
            rid = next(r for r, p in paths.items() if p is through_wall)
            with pytest.raises(RuntimeError, match=rf"^robot {rid}: planned path crosses blocked cell 1,1$"):
                self.replay_paths(grid, paths)

    def test_lawful_paths_on_the_grid_edges_replay(self):
        # Steps along the first and last row and column, and waits.
        grid = GridMap(width=4, height=3, blocked=frozenset())
        ring = [Cell(0, 0), Cell(1, 0), Cell(2, 0), Cell(3, 0), Cell(3, 1), Cell(3, 2),
                Cell(3, 2), Cell(2, 2), Cell(1, 2), Cell(0, 2), Cell(0, 1)]
        report = self.replay_paths(grid, {1: ring, 2: [Cell(1, 1)]})
        assert report.makespan == 10 and report.collisions == ()
        assert report.timelines[0].positions == tuple(ring)
