"""Perforation schedules and the exact/perforated A* search core."""

import heapq
import random
import re
from dataclasses import FrozenInstanceError, astuple, replace
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest

import oracles
from oracles import bfs_distance, reference_astar, reference_plan
from perfplan import planner
from perfplan.gridworld import (
    BUILTIN_NAMES,
    Cell,
    GridMap,
    RobotTask,
    Scenario,
    builtin_scenario,
    random_endpoints,
)
from perfplan.planner import (
    MODES,
    FOUND,
    MODULO,
    NO_PERFORATION,
    NOT_FOUND,
    RANDOM,
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
            assert got == [perforation_schedule(spec, i, extent) for i in range(k)], (spec, extent)

        for window in range(1, 26):
            for skip in range(window):
                check(PerforationSpec(MODULO, skip, window), 3 * window)
        for seed in (0, 7):
            for skip, window in ((1, 2), (22, 25)):
                check(PerforationSpec(RANDOM, skip, window, seed=seed), 200)
        for extent in range(1, 31):
            for skip, window in ((1, 2), (22, 25)):
                check(PerforationSpec(TRUNCATION, skip, window), extent + 5, extent)
        for mode in MODES:
            check(PerforationSpec(mode), 50)

    def test_truncation_tail(self):
        spec = PerforationSpec(TRUNCATION, 1, 2)
        # extent 10, cut 5: first five execute, last five are dropped.
        assert schedule_string(spec, 10, extent=10) == "EEEEESSSSS"

    def test_truncation_cut_floors(self):
        spec = PerforationSpec(TRUNCATION, 1, 3)
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
        (PerforationSpec(TRUNCATION, 1, 2), 1),
        (PerforationSpec(TRUNCATION), 0),
        (NO_PERFORATION, 0),
        (PerforationSpec(MODULO, 1, 2), 0),
        (PerforationSpec(RANDOM, 1, 2, seed=5), 0),
    ], ids=["trunc-tail", "trunc-rate0", "exact", "modulo", "random"])
    def test_only_truncation_runs_an_exact_search_for_its_extent(self, monkeypatch, spec, exact_calls):
        start, goal = Cell(5, 4), Cell(21, 19)
        extent = astar_exact(WAREHOUSE, start, goal).expansions
        calls = []
        monkeypatch.setattr(planner, "astar_exact", lambda *a: calls.append(a) or _astar(*a, NO_PERFORATION, None))
        out = astar_perforated(WAREHOUSE, start, goal, spec)
        assert len(calls) == exact_calls
        if spec.skip == 0:
            assert out == _astar(WAREHOUSE, start, goal, NO_PERFORATION, None)
        elif spec.mode == TRUNCATION:
            # The extent search is work this mode does, so it is counted.
            inner = _astar(WAREHOUSE, start, goal, spec, extent)
            assert out == replace(inner, expansions=inner.expansions + extent)
        else:
            assert out == _astar(WAREHOUSE, start, goal, spec, None)


def _seeded_query(seed):
    """A grid of 4x4 to 8x8, about 30% blocked, and two free cells on it."""
    rng = random.Random(seed)
    w, h = rng.randint(4, 8), rng.randint(4, 8)
    grid = GridMap(w, h, frozenset((x, y) for y in range(h) for x in range(w) if rng.random() < 0.3))
    free = grid.free_cells()
    return grid, rng.choice(free), rng.choice(free)


def _search_events(monkeypatch, grid, start, goal, spec, handed=None, extent=None):
    """Run `_astar` (with `extent`, for truncation mode) and return its
    outcome and what it did, in order: "F"
    or "P" for each schedule draw (full or perforated iteration), "push"
    and "pop" for each call on the heap of the current level, and
    "promote" for each heapify of the next level into it; "promote"
    becomes "promote early" if the heap last handed to a spy still holds
    keys. Each key pushed or promoted is appended to `handed`, if given."""
    events = []
    touched = [[]]  # the heaps handed to the spies, latest last

    def spy(name):
        fn = getattr(heapq, name)

        def call(heap, *key):
            if name == "heapify":
                events.append("promote early" if touched[-1] else "promote")
            else:
                events.append(name[4:])
            touched.append(heap)
            if handed is not None and name != "heappop":
                handed.extend(key or heap)
            return fn(heap, *key)
        return call

    schedule = planner._schedule
    monkeypatch.setattr(planner, "_schedule", lambda *args: (
        events.append("F" if full else "P") or full for full in schedule(*args)))
    monkeypatch.setattr(planner, "heapq", SimpleNamespace(
        heappush=spy("heappush"), heappop=spy("heappop"), heapify=spy("heapify")))
    out = _astar(grid, start, goal, spec, extent)
    monkeypatch.undo()
    return out, events


def _hand_ons(out, events):
    """The ways the search moved from one iteration to the next, read off
    its events. An iteration that takes a successor directly is followed
    at once by the next draw; any other pops the heap. A live pop is
    followed by its iteration's draw or by the end at the goal, a stale
    one by another pop or a promotion. An entry goes stale when its cell,
    waiting at the next level, is queued again a level lower."""
    ways = set()
    text = " ".join(events + ["end"])
    if re.search(r"\bpop (pop|promote)", text):
        ways.add("stale heap top")
    if re.search(r"\bpromote pop (pop|promote)", text):
        ways.add("promotion onto a stale top")
    if re.search(r"\bpromote pop (F|P|end)", text):
        ways.add("promotion onto a live top")
    if re.search(r"\bF (pop|promote)", text):
        ways.add("full iteration takes nothing directly")
    if re.search(r"\bP (pop|promote)", text):
        ways.add("perforated step takes nothing directly")
    # The goal is reached directly when an iteration runs after the last
    # key taken from the heap.
    taken = [i + 1 for i, event in enumerate(events) if event == "pop"]
    if out.found and {"F", "P"} & set(events[taken[-1] if taken else 0:]):
        ways.add("taken directly onto the goal")
    return ways


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
        # ladder rate.
        grid = REFERENCE_GRIDS[name]
        specs = [PerforationSpec(mode, rate.numerator, rate.denominator, seed=7)
                 for mode in MODES for rate in REFERENCE_RATES]
        for start, goal in random_endpoints(grid, 2, 40):
            exact = reference_astar(grid, start, goal, None, None)
            assert _astar(grid, start, goal, NO_PERFORATION, None) == exact
            for spec in specs:
                extent = exact.expansions if spec.mode == TRUNCATION else None
                assert (_astar(grid, start, goal, spec, extent)
                        == reference_astar(grid, start, goal, spec, extent)), (start, goal, spec)

    # The walk (module docstring of planner) on a 5x3 map. Each query names
    # its blocked cells and the cell where the walk stops: the goal, or a
    # dead end, from which the loop searches again from the start.
    #   one blocked cell short: right along row 1 to (2, 1); (3, 1), the
    #     goal's neighbor, is blocked, so the search goes around it. No
    #     walk stops nearer its goal: from a neighbor of the goal the
    #     walk steps onto it.
    #   at the start: (0, 0)'s only step toward the goal, right, is blocked.
    #   start is goal: no step, one iteration, the goal pop.
    #   walked: left, up twice, left twice: up is the first step toward
    #     the goal in the order up, left, right, down, and left the next.
    WALK_QUERIES = {
        "one blocked cell short": ({Cell(3, 1)}, Cell(0, 1), Cell(4, 1), Cell(2, 1)),
        "at the start": ({Cell(1, 0)}, Cell(0, 0), Cell(4, 0), Cell(0, 0)),
        "start is goal": (set(), Cell(2, 1), Cell(2, 1), Cell(2, 1)),
        "walked": ({Cell(4, 1)}, Cell(4, 2), Cell(1, 0), Cell(1, 0)),
    }
    WALK_SPECS = [PerforationSpec(mode, rate.numerator, rate.denominator, seed=7)
                  for mode in MODES for rate in (Fraction(0), Fraction(1, 2), Fraction(22, 25))]

    @staticmethod
    def _walk(grid, start, goal):
        """The cells the walk steps onto, the start first: each step the
        first free neighbor toward the goal, in the order up, left, right,
        down, until the goal or a cell with none."""
        walk = [start]
        while walk[-1] != goal:
            x, y = walk[-1]
            steps = [Cell(x, y - 1), Cell(x - 1, y), Cell(x + 1, y), Cell(x, y + 1)]
            toward = [c for c in steps if manhattan(c, goal) < manhattan(walk[-1], goal) and grid.is_free(c)]
            if not toward:
                break
            walk.append(toward[0])
        return walk

    @pytest.mark.parametrize("spec", WALK_SPECS, ids=str)
    @pytest.mark.parametrize("query", WALK_QUERIES)
    def test_walk_and_its_dead_ends_equal_the_reference(self, monkeypatch, query, spec):
        blocked, start, goal, stop = self.WALK_QUERIES[query]
        grid = GridMap(5, 3, frozenset(blocked))
        walk = self._walk(grid, start, goal)
        assert walk[-1] == stop
        extent = reference_astar(grid, start, goal, None, None).expansions
        extent = extent if spec.mode == TRUNCATION else None
        out, events = _search_events(monkeypatch, grid, start, goal, spec, extent=extent)
        assert out == reference_astar(grid, start, goal, spec, extent)
        draws = [event for event in events if event in ("F", "P")]
        if stop == goal:
            # A walked query makes no heap call and draws the schedule once
            # per edge: the loop iterations it stands in for.
            assert out.path == tuple(walk)
            assert events == draws and len(draws) == out.edges
        else:
            # A dead-ending walk draws nothing: every draw is a loop
            # iteration's, and the goal pop draws none.
            assert len(draws) == out.expansions + out.skipped - out.found

    @pytest.mark.parametrize("spec", WALK_SPECS, ids=str)
    def test_walked_counters_read_the_schedule_at_the_extent(self, spec):
        # Four edges along row 1, walked. The exact search pops the five
        # cells of the path, so truncation's extent is 5. Of the first
        # four slots, those that run in full are expansions, with the goal
        # pop; the others are skipped.
        grid = GridMap(5, 3, frozenset())
        start, goal = Cell(0, 1), Cell(4, 1)
        exact = _astar(grid, start, goal, NO_PERFORATION, None)
        assert (exact.expansions, exact.skipped) == (5, 0)
        extent = exact.expansions if spec.mode == TRUNCATION else None
        full = sum(perforation_schedule(spec, i, extent) for i in range(4))
        out = _astar(grid, start, goal, spec, extent)
        assert (out.expansions, out.skipped) == (full + 1, 4 - full)
        assert out == reference_astar(grid, start, goal, spec, extent)
        assert out.path == exact.path
        if spec.mode == TRUNCATION and spec.skip:
            # 1/2 drops the last 2 of the 5 slots, 22/25 the last 4, of
            # which the walk draws 1 and 3.
            assert out.skipped == {Fraction(1, 2): 1, Fraction(22, 25): 3}[spec.rate]
            assert astar_perforated(grid, start, goal, spec) == replace(out, expansions=out.expansions + 5)

    def test_perforated_pick_that_queues_nothing(self):
        # Map (S start, G goal):   G # . .
        #                          . . . .
        #                          . . . S
        #                          . . # .
        # At 1/4 iterations 0-2 run in full and close S, (3, 1) and (3, 0),
        # which queue (2, 1) with g = 2 and (2, 0) with g = 3. Iteration 3
        # is perforated at (2, 0): its only open neighbor is (2, 1), whose
        # g = 2 beats 4, so nothing is queued and the next key must come
        # from the heap, not be taken directly.
        grid = GridMap(4, 4, frozenset({Cell(1, 0), Cell(2, 3)}))
        start, goal, spec = Cell(3, 2), Cell(0, 0), PerforationSpec(MODULO, 1, 4)
        out = _astar(grid, start, goal, spec, None)
        assert out == reference_astar(grid, start, goal, spec, None)
        assert out.path == (Cell(3, 2), Cell(3, 1), Cell(2, 1), Cell(1, 1), Cell(0, 1), Cell(0, 0))
        assert (out.expansions, out.skipped) == (7, 1)

    def test_open_corridor_makes_no_heap_call(self, monkeypatch):
        # Along an open corridor each iteration's left neighbor is the one
        # step toward the goal, taken directly; the side cells are a step
        # away, so they go to the next level, which is never promoted. The
        # search makes no heap call at all, exact or perforated. It runs
        # leftward so that the cell taken is not the first block's.
        grid = GridMap(30, 5, frozenset())
        for spec in (NO_PERFORATION, PerforationSpec(MODULO, 22, 25)):
            out, events = _search_events(monkeypatch, grid, Cell(29, 2), Cell(0, 2), spec)
            assert out.edges == 29 and out.expansions + out.skipped == 30
            assert set(events) <= {"F", "P"}

    # Seeded queries (see _seeded_query) on which the search moves from one
    # iteration to the next each way that is not a direct take.
    @pytest.mark.parametrize("way, seed, skip, window", [
        ("promotion onto a live top", 5, 0, 1),
        ("promotion onto a live top", 5, 3, 4),
        ("stale heap top", 8, 0, 1),
        ("promotion onto a stale top", 197, 3, 4),
        ("taken directly onto the goal", 39, 0, 1),
        ("taken directly onto the goal", 39, 3, 4),
        ("perforated step takes nothing directly", 12, 3, 4),
        ("perforated step takes nothing directly", 5, 3, 4),
        ("full iteration takes nothing directly", 4, 0, 1),
        ("full iteration takes nothing directly", 38, 0, 1),
    ])
    def test_each_way_an_iteration_hands_on_matches_the_reference(self, monkeypatch, way, seed,
                                                                   skip, window):
        grid, start, goal = _seeded_query(seed)
        spec = PerforationSpec(MODULO, skip, window)
        out, events = _search_events(monkeypatch, grid, start, goal, spec)
        assert way in _hand_ons(out, events)
        assert out == reference_astar(grid, start, goal, spec, None)
        # The next level is promoted only once the current one is empty.
        assert "promote early" not in events

    # Seeded queries (see _seeded_query) on which a step toward the goal
    # reaches a cell that waits at the next level, from a full iteration
    # (95) and from a perforated one (268). The reference queues the cell a
    # second time, with a lower g; every second queueing is such a step,
    # since one away from the goal cannot lower a cell's level. The kernel
    # must queue it again too, though the cell was queued before.
    @pytest.mark.parametrize("seed, skip, window", [(95, 0, 1), (268, 1, 2)])
    def test_step_toward_the_goal_requeues_a_waiting_cell(self, monkeypatch, seed, skip, window):
        grid, start, goal = _seeded_query(seed)
        spec = PerforationSpec(MODULO, skip, window)
        relaxed = []
        monkeypatch.setattr(oracles, "heapq", SimpleNamespace(
            heappush=lambda heap, key: relaxed.append(key[2:]) or heapq.heappush(heap, key),
            heappop=heapq.heappop))
        want = reference_astar(grid, start, goal, spec, None)
        monkeypatch.undo()
        assert len(set(relaxed)) < len(relaxed)
        assert _astar(grid, start, goal, spec, None) == want

    def test_second_toward_successor_is_pushed_and_the_first_taken(self, monkeypatch):
        # Map: 5x6, S = (3, 0), G = (2, 4), (2, 3) and (3, 3) blocked. The
        # walk (left, then down) dead-ends at (2, 2), so the loop runs from
        # S; with (3, 3) open the search would go down column 3 instead.
        # At 1/2 iteration 0 runs in full at S. (4, 0) is a step away from
        # the goal and waits a level; (2, 0) and (3, 1) both have h 4 and
        # S's f. (2, 0) comes first in row-major order, so it is taken
        # directly, and (3, 1) is pushed with key h*n + cell. Iteration 1
        # is perforated at (2, 0) on the x, y and h moved along with it:
        # with x = goal x it steps down, where an x off by one would step
        # sideways.
        grid = GridMap(5, 6, frozenset({Cell(2, 3), Cell(3, 3)}))
        start, goal, spec = Cell(3, 0), Cell(2, 4), PerforationSpec(MODULO, 1, 2)
        handed = []
        out, events = _search_events(monkeypatch, grid, start, goal, spec, handed)
        n, w = len(grid._mask), grid.width + 2
        assert events[:3] == ["F", "push", "P"]
        assert handed[0] == 4 * n + 2 * w + 4  # (3, 1), h 4
        assert out == reference_astar(grid, start, goal, spec, None)
        assert out.path[:3] == (Cell(3, 0), Cell(2, 0), Cell(2, 1))

    # Seeded queries (see _seeded_query) on which an iteration runs on x, y
    # and h it did not decode itself, or on a cell that must be decoded,
    # each found by its pattern in the search's events.
    @pytest.mark.parametrize("pattern, seed, skip, window", [
        (r"\bF( push)? P", 46, 1, 2),  # a full iteration's direct take runs perforated
        (r"\bF( push)? P", 155, 1, 2),
        (r"\bpop P", 75, 1, 2),  # a cell from the heap runs perforated
        (r"\bpop P", 76, 1, 2),
        (r"\bpop F", 95, 0, 1),  # a cell from the heap runs in full
        (r"\bpop F", 136, 0, 1),
    ])
    def test_moved_and_decoded_cells_match_the_reference(self, monkeypatch, pattern,
                                                         seed, skip, window):
        grid, start, goal = _seeded_query(seed)
        spec = PerforationSpec(MODULO, skip, window)
        out, events = _search_events(monkeypatch, grid, start, goal, spec)
        assert re.search(pattern, " ".join(events))
        assert out == reference_astar(grid, start, goal, spec, None)

    def test_window_larger_than_the_grid(self):
        # The modulo pattern is cut at the mask size, which no iteration
        # index reaches: a huge window, even one above sys.maxsize, must
        # neither allocate it nor differ.
        for window in (10**12, 10**30):
            spec = PerforationSpec(MODULO, 1, window)
            for start, goal in random_endpoints(WAREHOUSE, 4, 10):
                assert (_astar(WAREHOUSE, start, goal, spec, None)
                        == reference_astar(WAREHOUSE, start, goal, spec, None))


# Warehouse queries whose perforated search dead-ends in some mode at 3/4 or
# 22/25 (random mode at seed 7), so a one-leg plan's failure is covered.
DEAD_END_QUERIES = [(Cell(1, 2), Cell(16, 9)), (Cell(0, 6), Cell(11, 9)), (Cell(14, 0), Cell(20, 20)),
                    (Cell(13, 3), Cell(18, 7)), (Cell(18, 3), Cell(9, 5))]

# One blocked cell on a 5x3 map. (7, 0) is three columns off the grid, and
# its padded mask index wraps onto the free cell (0, 1) of the next row.
ENDPOINT_GRID = GridMap(5, 3, frozenset({Cell(2, 1)}))
BAD_ENDPOINTS = {"blocked": Cell(2, 1), "one-column-off": Cell(5, 0),
                 "three-columns-off": Cell(7, 0), "non-integer": Cell(0.5, 0)}
ENTRY_POINTS = {
    "astar_exact": lambda s, g: astar_exact(ENDPOINT_GRID, s, g),
    "astar_perforated": lambda s, g: astar_perforated(ENDPOINT_GRID, s, g, PerforationSpec(TRUNCATION, 1, 2)),
    "plan_multi_leg": lambda s, g: plan_multi_leg(ENDPOINT_GRID, RobotTask(1, s, g), PerforationSpec(MODULO, 3, 4)),
    "Scenario": lambda s, g: Scenario("bad", ENDPOINT_GRID, (RobotTask(1, s, g),)),
}


@pytest.mark.parametrize("case", BAD_ENDPOINTS)
@pytest.mark.parametrize("end", ["start", "goal"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_endpoint_is_refused_with_its_message(entry, end, case):
    cell = BAD_ENDPOINTS[case]
    if case == "three-columns-off":
        assert ENDPOINT_GRID._mask[(cell.y + 1) * (ENDPOINT_GRID.width + 2) + cell.x + 1] == 1
    start, goal = (cell, Cell(4, 2)) if end == "start" else (Cell(0, 0), cell)
    if entry != "Scenario":
        message = f"{end} {cell} is blocked or out of range"
    elif case == "blocked":
        message = f"robot 1 {end} on blocked cell {cell}"
    else:
        message = f"robot 1 {end} {cell} is out of range"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ENTRY_POINTS[entry](start, goal)


class TestMultiLeg:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_one_leg_plan_is_its_search(self, name, mode):
        # A task without waypoints is planned by one search, whose outcome
        # is the plan, with failed_leg 0 when it fails. Truncation's
        # expansions include the exact search that sized its loop.
        grid = builtin_scenario(name).grid
        queries = random_endpoints(grid, 5, 20) + (DEAD_END_QUERIES if name == "warehouse" else [])
        failures = 0
        for rate in (Fraction(0), Fraction(3, 4), Fraction(22, 25)):
            spec = PerforationSpec.from_rate(rate, mode, seed=7)
            for start, goal in queries:
                extent = reference_astar(grid, start, goal, None, None).expansions
                want = reference_astar(grid, start, goal, spec, extent)
                if spec.skip and mode == TRUNCATION:
                    want = replace(want, expansions=want.expansions + extent)
                if not want.found:
                    want = replace(want, failed_leg=0)
                    failures += 1
                out = plan_multi_leg(grid, RobotTask(1, start, goal), spec)
                assert out == want, (start, goal, spec)
                direct = astar_perforated(grid, start, goal, spec)
                assert out == (direct if direct.found else replace(direct, failed_leg=0))
        assert failures > 0 or name == "room"

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

    @pytest.mark.parametrize("rate", [Fraction(0), Fraction(22, 25)], ids=["exact", "r22_25"])
    def test_every_cell_is_the_maps_shared_cell(self, rate):
        # The task's cells are objects of its own, so a path that began with
        # task.start would hold a second Cell for (0, 0).
        task = RobotTask(6, Cell(0, 0), Cell(2, 0), waypoints=(Cell(1, 0),))
        out = plan_multi_leg(WAREHOUSE, task, PerforationSpec.from_rate(rate))
        assert out.path == (Cell(0, 0), Cell(1, 0), Cell(2, 0))
        w = WAREHOUSE.width + 2
        assert all(cell is WAREHOUSE._cell((cell.y + 1) * w + cell.x + 1) for cell in out.path)
        room = builtin_scenario("room")
        for task in room.tasks:
            out = plan_multi_leg(room.grid, task, PerforationSpec.from_rate(rate))
            w = room.grid.width + 2
            assert out.found and task.waypoints
            assert all(cell is room.grid._cell((cell.y + 1) * w + cell.x + 1) for cell in out.path)


# (0, 0) -> (2, 2) on this 3x3 map: the walk's first step toward the goal,
# right, dead-ends at (1, 0), so the search pops (0, 1) off its heap and
# takes an optimal path that it did not walk.
#   ..#
#   .#.
#   ...
POCKET_3x3 = GridMap(width=3, height=3, blocked=frozenset({Cell(2, 0), Cell(1, 1)}))


class TestWalkedPlan:
    HALF = {mode: PerforationSpec(mode, 1, 2) for mode in MODES}

    @pytest.mark.parametrize("mode, counters", [(MODULO, (3, 2)), (RANDOM, (2, 3)), (TRUNCATION, (9, 1))])
    def test_counters_come_from_the_schedule(self, mode, counters):
        # Four edges along a row, walked. Modulo 1/2 perforates iterations
        # 1 and 3, random at seed 0 three of the four; truncation's extent
        # is the exact search's 5 expansions, of which the last 2 are
        # dropped, so iteration 3 is perforated and the extent is added.
        task = RobotTask(1, Cell(0, 0), Cell(4, 0))
        exact = plan_multi_leg(OPEN_5x5, task)
        assert (exact.expansions, exact.skipped) == (5, 0)
        out = plan_multi_leg(OPEN_5x5, task, self.HALF[mode])
        assert (out.expansions, out.skipped) == counters
        assert out == reference_plan(OPEN_5x5, task, self.HALF[mode])
        assert out.path == exact.path

    @pytest.mark.parametrize("mode, counters", [(MODULO, (4, 1)), (TRUNCATION, (9, 1))])
    def test_a_waypoint_on_the_start_is_a_leg_of_no_edge(self, mode, counters):
        # The first leg is the goal pop alone (plus its extent of 1 in
        # truncation mode); the second, of three edges, perforates one.
        task = RobotTask(1, Cell(0, 0), Cell(3, 0), waypoints=(Cell(0, 0),))
        out = plan_multi_leg(OPEN_5x5, task, self.HALF[mode])
        assert (out.expansions, out.skipped) == counters
        assert out == reference_plan(OPEN_5x5, task, self.HALF[mode])

    @pytest.mark.parametrize("grid, task", [
        (POCKET_3x3, RobotTask(1, Cell(0, 0), Cell(2, 2))),
        (SPLIT_5x5, RobotTask(1, Cell(0, 0), Cell(4, 0))),
        (GridMap(5, 3, frozenset({Cell(2, 0), Cell(2, 1)})), RobotTask(1, Cell(0, 0), Cell(4, 0))),
        (GridMap(5, 3, frozenset({Cell(2, 0), Cell(2, 1)})),
         RobotTask(1, Cell(0, 0), Cell(4, 2), waypoints=(Cell(4, 0),))),
    ], ids=["optimal-not-walked", "no-path", "detour", "walked-leg-then-detour"])
    @pytest.mark.parametrize("mode", MODES)
    def test_a_plan_not_walked_is_searched(self, grid, task, mode):
        # A leg whose walk dead-ends is searched from its start, at rate 0
        # and at 1/2 alike.
        for spec in (PerforationSpec(mode), self.HALF[mode]):
            assert plan_multi_leg(grid, task, spec) == reference_plan(grid, task, spec)
        assert plan_multi_leg(grid, task, PerforationSpec(mode)) == plan_multi_leg(grid, task)


class TestPlanOutcome:
    PATH = (Cell(0, 0), Cell(1, 0))

    def test_found_flag(self):
        assert PlanOutcome(NOT_FOUND, (), 3, 1).found is False
        assert PlanOutcome("found", (Cell(0, 0),), 1, 0).found is True

    def test_failed_leg_defaults_to_none(self):
        out = PlanOutcome(FOUND, self.PATH, 2, 1)
        assert out.failed_leg is None
        assert astuple(out) == (FOUND, self.PATH, 2, 1, None)

    def test_equals_hashes_and_prints_as_its_keyword_built_twin(self):
        out = PlanOutcome(NOT_FOUND, (), 4, 3, 1)
        twin = PlanOutcome(status=NOT_FOUND, path=(), expansions=4, skipped=3, failed_leg=1)
        assert out == twin and hash(out) == hash(twin) and repr(out) == repr(twin)
        assert repr(out) == "PlanOutcome(status='not_found', path=(), expansions=4, skipped=3, failed_leg=1)"
        assert out != replace(twin, skipped=2)

    def test_replace_returns_the_same_class(self):
        out = replace(PlanOutcome(FOUND, self.PATH, 2, 1), expansions=7, failed_leg=0)
        twin = PlanOutcome(status=FOUND, path=self.PATH, expansions=7, skipped=1, failed_leg=0)
        assert type(out) is PlanOutcome
        assert out == twin and hash(out) == hash(twin) and repr(out) == repr(twin)

    def test_assignment_is_refused(self):
        out = PlanOutcome(FOUND, self.PATH, 2, 1)
        with pytest.raises(FrozenInstanceError):
            out.skipped = 0
        with pytest.raises(FrozenInstanceError):
            out.failed_leg = 1
        with pytest.raises(FrozenInstanceError):
            del out.path
        assert astuple(out) == (FOUND, self.PATH, 2, 1, None)


# (0, 0) is free, and its padded index is the free one closest to index 0,
# the border byte that ends a found path's decode.
SHARED_CELL_MAP = ["......",
                   ".##.#.",
                   "...#..",
                   ".#....",
                   "......"]
SHARED_CELL_QUERIES = {
    "one cell": (Cell(4, 2), Cell(4, 2)),
    "next to the goal": (Cell(2, 2), Cell(2, 3)),
    "from (0, 0)": (Cell(0, 0), Cell(5, 4)),
    "to (0, 0)": (Cell(5, 2), Cell(0, 0)),
}


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warmed"])
@pytest.mark.parametrize("rate", [Fraction(0), Fraction(22, 25)], ids=["exact", "r22_25"])
@pytest.mark.parametrize("query", SHARED_CELL_QUERIES)
def test_found_path_is_made_of_the_maps_shared_cells(warm, rate, query):
    grid = GridMap(6, 5, frozenset(Cell(x, y) for y, row in enumerate(SHARED_CELL_MAP)
                                   for x, ch in enumerate(row) if ch == "#"))
    if warm:
        grid.free_cells()  # makes every free cell's Cell
    assert any(grid._cells) == warm
    start, goal = SHARED_CELL_QUERIES[query]
    if rate:
        spec = PerforationSpec.from_rate(rate)
        out = astar_perforated(grid, start, goal, spec)
    else:
        spec = None
        out = astar_exact(grid, start, goal)
    assert out.found and out == reference_astar(grid, start, goal, spec, None)
    w = grid.width + 2
    assert all(cell is grid._cell((cell.y + 1) * w + cell.x + 1) for cell in out.path)
