"""Perforation schedules and the exact/perforated A* search core."""

import heapq
import random
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest

from oracles import bfs_distance, reference_astar
from perfplan import planner
from perfplan.gridworld import (
    Cell,
    GridMap,
    RobotTask,
    builtin_scenario,
    random_endpoints,
)
from perfplan.planner import (
    HEAD,
    MODES,
    MODULO,
    NO_PERFORATION,
    NOT_FOUND,
    RANDOM,
    TAIL,
    TRUNCATION,
    PerforationSpec,
    PlanOutcome,
    _astar,
    astar_exact,
    astar_perforated,
    manhattan,
    perforation_schedule,
    plan_multi_leg,
)

OPEN_5x5 = GridMap(width=5, height=5, blocked=frozenset())
OPEN_30x30 = GridMap(width=30, height=30, blocked=frozenset())
SPLIT_5x5 = GridMap(width=5, height=5, blocked=frozenset(Cell(2, y) for y in range(5)))
WAREHOUSE = builtin_scenario("warehouse").grid

# Deterministic high-rate failure: the degraded probe dead-ends on this
# warehouse query, so the search legally reports not_found.
FAILING_QUERY = (Cell(1, 4), Cell(16, 9))
FAILING_SPEC = PerforationSpec(MODULO, 17, 20)


def schedule_string(spec, n, extent=None):
    return "".join(
        "E" if perforation_schedule(spec, i, extent) else "S" for i in range(n)
    )


class TestPerforationSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="mode"):
            PerforationSpec("stride", 1, 2)
        with pytest.raises(ValueError, match="skip < window"):
            PerforationSpec(MODULO, -1, 2)
        with pytest.raises(ValueError, match="skip < window"):
            PerforationSpec(MODULO, 2, 2)
        with pytest.raises(ValueError, match="truncate_at"):
            PerforationSpec(TRUNCATION, 1, 2, truncate_at="middle")

    def test_rate_property(self):
        assert PerforationSpec(MODULO, 3, 4).rate == Fraction(3, 4)
        assert NO_PERFORATION.rate == 0

    def test_from_rate(self):
        spec = PerforationSpec.from_rate("1/5")
        assert (spec.mode, spec.skip, spec.window) == (MODULO, 1, 5)
        assert PerforationSpec.from_rate("0.25").rate == Fraction(1, 4)
        assert PerforationSpec.from_rate(0, RANDOM).skip == 0
        with pytest.raises(ValueError, match="rate"):
            PerforationSpec.from_rate(1)
        with pytest.raises(ValueError, match="rate"):
            PerforationSpec.from_rate("-1/5")


class TestSchedule:
    def test_rate_zero_always_executes(self):
        for mode in (MODULO, TRUNCATION, RANDOM):
            spec = PerforationSpec(mode, 0, 1)
            assert schedule_string(spec, 16) == "E" * 16

    def test_modulo_three_of_four(self):
        # skip=3/window=4 keeps one iteration per window: the i += 4 stride.
        assert schedule_string(PerforationSpec(MODULO, 3, 4), 8) == "ESSSESSS"

    def test_modulo_one_of_four(self):
        # skip=1/window=4 drops the last iteration of each window.
        assert schedule_string(PerforationSpec(MODULO, 1, 4), 8) == "EEESEEES"

    def test_modulo_rate_matches_long_run_average(self):
        for k, n in ((1, 5), (1, 3), (2, 5), (3, 4), (22, 25)):
            spec = PerforationSpec(MODULO, k, n)
            executed = sum(perforation_schedule(spec, i) for i in range(n * 40))
            assert executed == (n - k) * 40

    def test_schedule_iterator_matches_the_schedule(self):
        # The search reads every mode through planner._schedule.
        def check(spec, k, extent=None):
            got = list(islice(planner._schedule(spec, extent, k), k))
            assert got == [perforation_schedule(spec or NO_PERFORATION, i, extent)
                           for i in range(k)], (spec, extent)

        for window in range(1, 26):
            for skip in range(window):
                check(PerforationSpec(MODULO, skip, window), 3 * window)
        for seed in (0, 7):
            for skip, window in ((1, 2), (22, 25)):
                check(PerforationSpec(RANDOM, skip, window, seed=seed), 200)
        for end in (HEAD, TAIL):
            for extent in range(1, 31):
                for skip, window in ((1, 2), (22, 25)):
                    check(PerforationSpec(TRUNCATION, skip, window, truncate_at=end), extent + 5, extent)
        for mode in MODES:
            check(PerforationSpec(mode), 50)
        check(None, 50)

    def test_truncation_tail(self):
        spec = PerforationSpec(TRUNCATION, 1, 2, truncate_at=TAIL)
        # extent 10, cut 5: first five execute, last five are dropped.
        assert schedule_string(spec, 10, extent=10) == "EEEEESSSSS"

    def test_truncation_head(self):
        spec = PerforationSpec(TRUNCATION, 1, 2, truncate_at=HEAD)
        assert schedule_string(spec, 10, extent=10) == "SSSSSEEEEE"

    def test_truncation_cut_floors(self):
        spec = PerforationSpec(TRUNCATION, 1, 3, truncate_at=TAIL)
        # cut = floor(10/3) = 3 of extent 10.
        assert schedule_string(spec, 10, extent=10) == "EEEEEEESSS"

    def test_truncation_requires_extent(self):
        spec = PerforationSpec(TRUNCATION, 1, 2)
        with pytest.raises(ValueError, match="extent"):
            perforation_schedule(spec, 0)
        with pytest.raises(ValueError, match="extent"):
            perforation_schedule(spec, 0, extent=0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            perforation_schedule(NO_PERFORATION, -1)

    def test_random_is_stateless_and_seeded(self):
        spec = PerforationSpec(RANDOM, 1, 2, seed=123)
        first = schedule_string(spec, 200)
        assert schedule_string(spec, 200) == first
        assert schedule_string(PerforationSpec(RANDOM, 1, 2, seed=124), 200) != first
        # Querying out of order gives the same per-index answers.
        assert perforation_schedule(spec, 150) == (first[150] == "E")

    def test_random_rate_half_tally(self):
        spec = PerforationSpec(RANDOM, 1, 2, seed=0)
        skipped = sum(not perforation_schedule(spec, i) for i in range(1000))
        assert 450 <= skipped <= 550

    def test_random_tally_tracks_rate(self):
        for k, n in ((1, 5), (3, 4), (22, 25)):
            spec = PerforationSpec(RANDOM, k, n, seed=42)
            skipped = sum(not perforation_schedule(spec, i) for i in range(2000))
            assert abs(skipped / 2000 - k / n) < 0.05


class TestExactAstar:
    def test_trivial_query(self):
        out = astar_exact(OPEN_5x5, Cell(1, 1), Cell(1, 1))
        assert out.found and out.path == (Cell(1, 1),)
        assert out.edges == 0 and out.expansions == 1 and out.skipped == 0

    def test_open_grid_corner_to_corner(self):
        out = astar_exact(OPEN_5x5, Cell(0, 0), Cell(4, 4))
        assert out.found and out.edges == 8

    def test_rejects_bad_endpoints(self):
        grid = GridMap(width=3, height=3, blocked=frozenset({Cell(1, 1)}))
        with pytest.raises(ValueError, match="start"):
            astar_exact(grid, Cell(1, 1), Cell(0, 0))
        with pytest.raises(ValueError, match="goal"):
            astar_exact(grid, Cell(0, 0), Cell(5, 5))

    def test_rejects_non_integer_endpoints(self):
        # A half-integer cell is not on the grid: it is rejected, not searched
        # from (a search from it would walk a lattice of phantom cells).
        with pytest.raises(ValueError, match="start"):
            astar_exact(WAREHOUSE, (0.5, 0), (5, 0))
        with pytest.raises(ValueError, match="goal"):
            astar_perforated(WAREHOUSE, (5, 0), (5.0, 3), PerforationSpec(MODULO, 1, 2))

    def test_unreachable_goal(self):
        out = astar_exact(SPLIT_5x5, Cell(0, 0), Cell(4, 0))
        assert out.status == NOT_FOUND and out.path == ()
        with pytest.raises(ValueError, match="not_found"):
            out.edges

    def test_path_is_lawful(self):
        out = astar_exact(WAREHOUSE, Cell(5, 4), Cell(21, 19))
        assert out.path[0] == Cell(5, 4) and out.path[-1] == Cell(21, 19)
        for a, b in zip(out.path, out.path[1:]):
            assert manhattan(a, b) == 1
            assert WAREHOUSE.is_free(b)

    def test_matches_bfs_on_200_seeded_queries(self):
        # Optimality check against an independent breadth-first oracle.
        for start, goal in random_endpoints(WAREHOUSE, 1234, 200):
            out = astar_exact(WAREHOUSE, start, goal)
            assert out.found
            assert out.edges == bfs_distance(WAREHOUSE, start, goal)

    def test_expansions_at_least_path_length(self):
        for start, goal in random_endpoints(WAREHOUSE, 5, 30):
            out = astar_exact(WAREHOUSE, start, goal)
            assert out.expansions >= out.edges + 1


class TestPerforatedAstar:
    def test_rate_zero_is_bit_identical_to_exact(self):
        specs = [
            PerforationSpec(MODULO, 0, 1),
            PerforationSpec(TRUNCATION, 0, 1),
            PerforationSpec(RANDOM, 0, 1, seed=7),
        ]
        for start, goal in random_endpoints(WAREHOUSE, 77, 40):
            exact = astar_exact(WAREHOUSE, start, goal)
            for spec in specs:
                approx = astar_perforated(WAREHOUSE, start, goal, spec)
                assert approx.path == exact.path
                assert approx.expansions == exact.expansions
                assert approx.skipped == 0

    def test_deterministic(self):
        spec = PerforationSpec(MODULO, 3, 4)
        a = astar_perforated(WAREHOUSE, Cell(5, 4), Cell(21, 19), spec)
        b = astar_perforated(WAREHOUSE, Cell(5, 4), Cell(21, 19), spec)
        assert a == b

    def test_canonical_warehouse_task_at_three_quarters(self):
        exact = astar_exact(WAREHOUSE, Cell(5, 4), Cell(21, 19))
        approx = astar_perforated(
            WAREHOUSE, Cell(5, 4), Cell(21, 19), PerforationSpec(MODULO, 3, 4)
        )
        assert exact.edges == 31
        assert approx.found and approx.edges == 31
        assert approx.skipped > 0

    def test_paths_stay_lawful_at_every_ladder_rate(self):
        rates = [Fraction(s) for s in ("1/5", "1/3", "1/2", "3/4", "22/25")]
        pairs = random_endpoints(WAREHOUSE, 21, 20)
        for rate in rates:
            spec = PerforationSpec(MODULO, rate.numerator, rate.denominator)
            for start, goal in pairs:
                out = astar_perforated(WAREHOUSE, start, goal, spec)
                if not out.found:
                    continue
                assert out.path[0] == start and out.path[-1] == goal
                for a, b in zip(out.path, out.path[1:]):
                    assert manhattan(a, b) == 1
                    assert WAREHOUSE.is_free(a) and WAREHOUSE.is_free(b)

    def test_found_paths_never_beat_exact(self):
        # Exact A* is optimal, so any lawful path is at least as long.
        pairs = random_endpoints(WAREHOUSE, 31, 25)
        for k, n in ((1, 4), (1, 2), (3, 4), (5, 6)):
            spec = PerforationSpec(MODULO, k, n)
            for start, goal in pairs:
                exact = astar_exact(WAREHOUSE, start, goal)
                approx = astar_perforated(WAREHOUSE, start, goal, spec)
                if approx.found:
                    assert approx.edges >= exact.edges

    def test_counters_replay_the_schedule(self):
        # expansions/skipped must match the schedule over the indices consumed;
        # a found search ends with the goal pop, which executes unconditionally.
        for spec in (PerforationSpec(MODULO, 3, 4), PerforationSpec(RANDOM, 2, 5, seed=3)):
            for start, goal in random_endpoints(WAREHOUSE, 8, 15):
                out = astar_perforated(WAREHOUSE, start, goal, spec)
                total = out.expansions + out.skipped
                if out.found:
                    executed = sum(perforation_schedule(spec, i) for i in range(total - 1))
                    assert out.expansions == executed + 1
                else:
                    executed = sum(perforation_schedule(spec, i) for i in range(total))
                    assert out.expansions == executed

    def test_work_shrinks_on_open_grid(self):
        spec = PerforationSpec(MODULO, 3, 4)
        pairs = random_endpoints(OPEN_30x30, 11, 100)
        exact_mean = sum(astar_exact(OPEN_30x30, s, g).expansions for s, g in pairs) / 100
        approx_mean = (
            sum(astar_perforated(OPEN_30x30, s, g, spec).expansions for s, g in pairs) / 100
        )
        assert approx_mean < exact_mean

    def test_work_shrinks_monotonically_on_warehouse(self):
        pairs = random_endpoints(WAREHOUSE, 13, 60)
        means = {}
        means["exact"] = sum(astar_exact(WAREHOUSE, s, g).expansions for s, g in pairs) / 60
        for k, n in ((1, 5), (3, 4)):
            spec = PerforationSpec(MODULO, k, n)
            means[(k, n)] = (
                sum(astar_perforated(WAREHOUSE, s, g, spec).expansions for s, g in pairs) / 60
            )
        assert means[(3, 4)] < means[(1, 5)] < means["exact"]

    def test_high_rate_can_legally_fail(self):
        out = astar_perforated(WAREHOUSE, *FAILING_QUERY, FAILING_SPEC)
        assert out.status == NOT_FOUND
        assert out.path == () and out.skipped > 0

    @pytest.mark.parametrize("spec, exact_calls", [
        (PerforationSpec(TRUNCATION, 1, 2, truncate_at=TAIL), 1),
        (PerforationSpec(TRUNCATION, 3, 4, truncate_at=HEAD), 1),
        (PerforationSpec(TRUNCATION, truncate_at=HEAD), 0),
        (NO_PERFORATION, 0),
        (PerforationSpec(MODULO, 1, 2), 0),
        (PerforationSpec(RANDOM, 1, 2, seed=5), 0),
    ], ids=["trunc-tail", "trunc-head", "trunc-rate0", "exact", "modulo", "random"])
    def test_only_truncation_runs_an_exact_search_for_its_extent(self, monkeypatch, spec, exact_calls):
        start, goal = Cell(5, 4), Cell(21, 19)
        extent = astar_exact(WAREHOUSE, start, goal).expansions
        calls = []
        monkeypatch.setattr(planner, "astar_exact", lambda *a: calls.append(a) or _astar(*a, None, None))
        out = astar_perforated(WAREHOUSE, start, goal, spec)
        assert len(calls) == exact_calls
        if spec.skip == 0:
            assert out == _astar(WAREHOUSE, start, goal, None, None)
        elif spec.mode == TRUNCATION:
            # The extent search is work this mode does, so it is counted.
            inner = _astar(WAREHOUSE, start, goal, spec, extent)
            assert out == replace(inner, expansions=inner.expansions + extent)
        else:
            assert out == _astar(WAREHOUSE, start, goal, spec, None)

    def test_truncation_modes_differ(self):
        start, goal = Cell(5, 4), Cell(21, 19)
        head = astar_perforated(
            WAREHOUSE, start, goal, PerforationSpec(TRUNCATION, 1, 2, truncate_at=HEAD)
        )
        tail = astar_perforated(
            WAREHOUSE, start, goal, PerforationSpec(TRUNCATION, 1, 2, truncate_at=TAIL)
        )
        assert (head.expansions, head.skipped) != (tail.expansions, tail.skipped)


_RNG = random.Random(40)
REFERENCE_GRIDS = {
    "warehouse": WAREHOUSE,
    "room": builtin_scenario("room").grid,
    "random40": GridMap(40, 40, frozenset(
        (x, y) for y in range(40) for x in range(40) if _RNG.random() < 0.35)),
}
REFERENCE_RATES = [Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(3, 4), Fraction(22, 25)]


class TestKernelMatchesReference:
    @pytest.mark.parametrize("name", REFERENCE_GRIDS)
    def test_every_search_equals_the_reference(self, name):
        # Status, path, expansions and skipped, in every mode at every
        # ladder rate, truncation from both ends.
        grid = REFERENCE_GRIDS[name]
        specs = [PerforationSpec(mode, rate.numerator, rate.denominator, end, seed=7)
                 for mode, end in ((MODULO, TAIL), (RANDOM, TAIL), (TRUNCATION, HEAD), (TRUNCATION, TAIL))
                 for rate in REFERENCE_RATES]
        for start, goal in random_endpoints(grid, 2, 40):
            exact = reference_astar(grid, start, goal, None, None)
            assert _astar(grid, start, goal, None, None) == exact
            for spec in specs:
                extent = exact.expansions if spec.mode == TRUNCATION else None
                assert (_astar(grid, start, goal, spec, extent)
                        == reference_astar(grid, start, goal, spec, extent)), (start, goal, spec)

    def test_perforated_pick_that_queues_nothing(self):
        # Map (S start, G goal):   G # . .
        #                          . . . .
        #                          . . . S
        #                          . . # .
        # At 1/4 iterations 0-2 run in full and close S, (3, 1) and (3, 0),
        # which queue (2, 1) with g = 2 and (2, 0) with g = 3. Iteration 3
        # is perforated at (2, 0): its only open neighbor is (2, 1), whose
        # g = 2 beats 4, so nothing is queued and the next key must come
        # from the heap, not from the key carried past it.
        grid = GridMap(4, 4, frozenset({Cell(1, 0), Cell(2, 3)}))
        start, goal, spec = Cell(3, 2), Cell(0, 0), PerforationSpec(MODULO, 1, 4)
        out = _astar(grid, start, goal, spec, None)
        assert out == reference_astar(grid, start, goal, spec, None)
        assert out.path == (Cell(3, 2), Cell(3, 1), Cell(2, 1), Cell(1, 1), Cell(0, 1), Cell(0, 0))
        assert (out.expansions, out.skipped) == (7, 1)

    def test_carried_key_keeps_a_straight_run_off_the_heap(self, monkeypatch):
        # Down an open corridor each iteration's smallest key is the next
        # cell toward the goal, so heappushpop hands the carried key straight
        # back, exact or perforated, and nothing is popped from the heap.
        taken = []

        def pushpop(heap, key):
            out = heapq.heappushpop(heap, key)
            taken.append(out == key)
            return out

        def pop(heap):
            raise AssertionError("popped from the heap")

        monkeypatch.setattr(planner, "heapq", SimpleNamespace(
            heappush=heapq.heappush, heappop=pop, heappushpop=pushpop))
        grid = GridMap(30, 5, frozenset())
        for spec in (None, PerforationSpec(MODULO, 22, 25)):
            taken.clear()
            out = _astar(grid, Cell(0, 2), Cell(29, 2), spec, None)
            assert out.edges == 29 and out.expansions + out.skipped == 30
            assert taken == [True] * 29

    def test_window_larger_than_the_grid(self):
        # The modulo pattern is cut at the mask size, which no iteration
        # index reaches: a huge window, even one above sys.maxsize, must
        # neither allocate it nor differ.
        for window in (10**12, 10**30):
            spec = PerforationSpec(MODULO, 1, window)
            for start, goal in random_endpoints(WAREHOUSE, 4, 10):
                assert (_astar(WAREHOUSE, start, goal, spec, None)
                        == reference_astar(WAREHOUSE, start, goal, spec, None))


class TestMultiLeg:
    def test_single_leg_matches_direct_search(self):
        task = RobotTask(1, Cell(5, 4), Cell(21, 19))
        spec = PerforationSpec(MODULO, 1, 5)
        direct = astar_perforated(WAREHOUSE, task.start, task.goal, spec)
        assert plan_multi_leg(WAREHOUSE, task, spec) == direct

    def test_waypoint_route_concatenates_optimal_legs(self):
        room = builtin_scenario("room")
        task = room.task_for(1)
        out = plan_multi_leg(room.grid, task)
        want = bfs_distance(room.grid, task.start, task.waypoints[0]) + bfs_distance(
            room.grid, task.waypoints[0], task.goal
        )
        assert out.found and out.edges == want
        assert task.waypoints[0] in out.path
        assert out.path[0] == task.start and out.path[-1] == task.goal

    def test_junction_cells_not_duplicated(self):
        task = RobotTask(1, Cell(0, 0), Cell(4, 4), waypoints=(Cell(2, 2),))
        out = plan_multi_leg(OPEN_5x5, task)
        assert out.edges == 8
        for a, b in zip(out.path, out.path[1:]):
            assert a != b

    def test_out_and_back_patrol(self):
        task = RobotTask(1, Cell(0, 0), Cell(0, 0), waypoints=(Cell(3, 0),))
        out = plan_multi_leg(OPEN_5x5, task)
        assert out.found and out.edges == 6

    def test_counters_sum_over_legs(self):
        task = RobotTask(1, Cell(0, 0), Cell(4, 4), waypoints=(Cell(2, 2),))
        spec = PerforationSpec(MODULO, 1, 2)
        leg1 = astar_perforated(OPEN_5x5, Cell(0, 0), Cell(2, 2), spec)
        leg2 = astar_perforated(OPEN_5x5, Cell(2, 2), Cell(4, 4), spec)
        out = plan_multi_leg(OPEN_5x5, task, spec)
        assert out.expansions == leg1.expansions + leg2.expansions
        assert out.skipped == leg1.skipped + leg2.skipped

    def test_failing_leg_index_reported(self):
        task = RobotTask(1, Cell(0, 0), Cell(4, 0), waypoints=(Cell(1, 4),))
        out = plan_multi_leg(SPLIT_5x5, task)
        assert out.status == NOT_FOUND
        assert out.failed_leg == 1

    def test_default_spec_is_exact(self):
        task = RobotTask(1, Cell(0, 0), Cell(4, 4))
        out = plan_multi_leg(OPEN_5x5, task)
        assert out.skipped == 0 and out.edges == 8


class TestPlanOutcome:
    def test_found_flag(self):
        assert PlanOutcome(NOT_FOUND, (), 3, 1).found is False
        assert PlanOutcome("found", (Cell(0, 0),), 1, 0).found is True
