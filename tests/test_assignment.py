"""Cost-matrix construction and minimum-cost robot/task assignment."""

import math
import random
import re
import sys
from fractions import Fraction

import pytest

import perfplan.assignment as assignment_module
import perfplan.planner as planner_module

from oracles import bfs_distance, bfs_distances, brute_force_assignment
from perfplan.assignment import (
    Assignment,
    CostMatrix,
    _solve,
    build_cost_matrix,
    hungarian,
    unreachable_sentinel,
)
from perfplan.gridworld import Cell, GridMap, builtin_scenario

OPEN_5x5 = GridMap(width=5, height=5, blocked=frozenset())
SPLIT_5x5 = GridMap(width=5, height=5, blocked=frozenset(Cell(2, y) for y in range(5)))
WAREHOUSE = builtin_scenario("warehouse").grid


class TestCostMatrixType:
    def test_from_rows(self):
        m = CostMatrix.from_rows([[1, 2], [3, 4]])
        assert m.n == 2 and m.costs == ((1, 2), (3, 4))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CostMatrix(2, ((1, 2), (3,)))
        with pytest.raises(ValueError):
            CostMatrix(2, ((1, 2),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CostMatrix(0, ())

    def test_rejects_bad_costs(self):
        for bad in (-1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                CostMatrix.from_rows([[0, 1], [bad, 0]])

    def test_assignment_must_be_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            Assignment((0, 0), 1.0)
        with pytest.raises(ValueError, match="permutation"):
            Assignment((1, 2), 1.0)


class TestBuildCostMatrix:
    def test_robot_already_on_task(self):
        m = build_cost_matrix(OPEN_5x5, [Cell(2, 2)], [Cell(2, 2)])
        assert m.costs == ((0,),)

    def test_open_grid_two_by_two(self):
        m = build_cost_matrix(
            OPEN_5x5, [Cell(0, 0), Cell(4, 4)], [Cell(4, 0), Cell(0, 4)]
        )
        assert m.costs == ((4, 4), (4, 4))

    def test_unreachable_pair_gets_sentinel(self):
        m = build_cost_matrix(SPLIT_5x5, [Cell(0, 0)], [Cell(4, 0)])
        assert m.costs == ((unreachable_sentinel(SPLIT_5x5),),)
        assert unreachable_sentinel(SPLIT_5x5) == 26

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_cost_matrix(OPEN_5x5, [], [])
        with pytest.raises(ValueError):
            build_cost_matrix(OPEN_5x5, [Cell(0, 0)], [Cell(1, 1), Cell(2, 2)])
        with pytest.raises(ValueError):
            build_cost_matrix(SPLIT_5x5, [Cell(2, 0)], [Cell(0, 0)])

    def test_rejects_non_integer_cells(self):
        with pytest.raises(ValueError, match="out of range"):
            build_cost_matrix(OPEN_5x5, [Cell(0.5, 0)], [Cell(4, 4)])

    # One blocked cell on a 5x3 map. (7, 0) is three columns off the grid,
    # and its padded mask index wraps onto the free cell (0, 1).
    @pytest.mark.parametrize("bad", [Cell(2, 1), Cell(5, 0), Cell(7, 0), Cell(0.5, 0)],
                             ids=["blocked", "one-column-off", "three-columns-off", "non-integer"])
    @pytest.mark.parametrize("side", ["robot", "task"])
    def test_refuses_a_bad_cell_on_either_side(self, side, bad):
        grid = GridMap(5, 3, frozenset({Cell(2, 1)}))
        if bad == Cell(7, 0):
            assert grid._mask[(bad.y + 1) * (grid.width + 2) + bad.x + 1] == 1
        good = [Cell(0, 0), Cell(4, 2)]
        robots, tasks = ([good[0], bad], good) if side == "robot" else (good, [good[1], bad])
        with pytest.raises(ValueError, match=rf"^cell {re.escape(str(bad))} is blocked or out of range$"):
            build_cost_matrix(grid, robots, tasks)

    @pytest.mark.parametrize("bad", [(0, 0, 0), (0,), 7], ids=["3-tuple", "1-tuple", "not-iterable"])
    @pytest.mark.parametrize("side", ["robot", "task"])
    def test_refuses_a_cell_that_is_no_pair(self, side, bad):
        robots, tasks = ([bad], [(1, 0)]) if side == "robot" else ([(0, 0)], [bad])
        with pytest.raises(ValueError, match=rf"^cell {re.escape(repr(bad))} is not an x,y pair$"):
            build_cost_matrix(OPEN_5x5, robots, tasks)

    def test_row_ends_do_not_touch(self):
        # #..
        # .##   (2,0) and (0,1) are adjacent bytes of an unpadded mask.
        grid = GridMap(3, 2, frozenset({Cell(0, 0), Cell(1, 1), Cell(2, 1)}))
        m = build_cost_matrix(grid, [Cell(2, 0), Cell(0, 1)], [Cell(0, 1), Cell(2, 0)])
        assert unreachable_sentinel(grid) == 7
        assert m.costs == ((7, 0), (0, 7))

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="interpreters before 3.10.7 have no digit limit")
    def test_large_mask_ignores_the_str_digits_limit(self):
        # A 144x126 mask has 18k bits, far above a 640-digit limit.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            m = build_cost_matrix(GridMap(144, 126, frozenset()), [Cell(0, 0)], [Cell(143, 125)])
        finally:
            sys.set_int_max_str_digits(limit)
        assert m.costs == ((268,),)

    def test_runs_no_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_cost_matrix ran an A* search")
        monkeypatch.setattr(planner_module, "_astar", refuse)
        m = build_cost_matrix(WAREHOUSE, [Cell(5, 4), Cell(2, 7)], [Cell(21, 19), Cell(14, 19)])
        assert m.costs == ((31, 24), (31, 24))

    def test_matches_bfs_oracle_on_warehouse(self):
        robots = [Cell(5, 4), Cell(2, 7), Cell(21, 3)]
        tasks = [Cell(21, 19), Cell(14, 19), Cell(1, 16)]
        m = build_cost_matrix(WAREHOUSE, robots, tasks)
        for i, r in enumerate(robots):
            for j, t in enumerate(tasks):
                assert m.costs[i][j] == bfs_distance(WAREHOUSE, r, t)


def _bfs_matrix(grid, robots, tasks):
    sentinel = unreachable_sentinel(grid)
    return tuple(tuple(sentinel if (d := bfs_distance(grid, r, t)) is None else d for t in tasks)
                 for r in robots)


# A 6x5 map with walls: its corners and its first and last rows are free,
# where a front bit's right shift by the padded width lands in the top
# border row.
WALLED_6x5 = GridMap(6, 5, frozenset({Cell(2, 1), Cell(3, 1), Cell(1, 3), Cell(4, 2), Cell(4, 3)}))


class TestWavefrontEdges:
    """The wavefront's three shifts against the BFS oracle where the
    padded map has no interior rows or columns to spare."""

    @pytest.mark.parametrize("grid", [GridMap(7, 1, frozenset()), GridMap(1, 7, frozenset()),
                                      GridMap(7, 1, frozenset({Cell(3, 0)})),
                                      GridMap(1, 7, frozenset({Cell(0, 3)}))],
                             ids=["1x7", "7x1", "1x7 cut", "7x1 cut"])
    def test_corridors(self, grid):
        cells = [Cell(x, y) for y in range(grid.height) for x in range(grid.width) if grid.is_free(Cell(x, y))]
        robots = cells[:3] + cells[-3:]
        tasks = cells[-3:][::-1] + cells[:3][::-1]
        m = build_cost_matrix(grid, robots, tasks)
        assert m.costs == _bfs_matrix(grid, robots, tasks)

    @pytest.mark.parametrize("grid", [GridMap(6, 5, frozenset()), WALLED_6x5], ids=["open", "walled"])
    def test_corners_and_edge_rows(self, grid):
        w, h = grid.width, grid.height
        corners = [Cell(0, 0), Cell(w - 1, 0), Cell(0, h - 1), Cell(w - 1, h - 1)]
        edge_rows = [Cell(2, 0), Cell(w - 2, 0), Cell(1, h - 1), Cell(3, h - 1)]
        robots = corners + edge_rows
        tasks = edge_rows[::-1] + corners[::-1]
        m = build_cost_matrix(grid, robots, tasks)
        assert m.costs == _bfs_matrix(grid, robots, tasks)
        # Robots on their own tasks: the diagonal is zero.
        m = build_cost_matrix(grid, robots, robots)
        assert m.costs == _bfs_matrix(grid, robots, robots)
        assert all(m.costs[i][i] == 0 for i in range(len(robots)))

    def test_walled_off_task_gets_the_sentinel(self):
        # (0, 0) is closed off by (1, 0) and (0, 1); the robot standing
        # there reaches its own cell and its wavefront then dies out.
        grid = GridMap(5, 4, frozenset({Cell(1, 0), Cell(0, 1)}))
        robots = [Cell(4, 3), Cell(0, 0), Cell(2, 0)]
        tasks = [Cell(0, 0), Cell(4, 0), Cell(0, 3)]
        m = build_cost_matrix(grid, robots, tasks)
        sentinel = unreachable_sentinel(grid)
        assert m.costs == _bfs_matrix(grid, robots, tasks)
        assert m.costs[0][0] == m.costs[2][0] == sentinel
        assert m.costs[1] == (0, sentinel, sentinel)

    def test_fleet_sized_dispatch(self):
        # 32 robots and 32 tasks on the 4x4 tiled warehouse (96x84). One
        # BFS per robot checks its whole row; the per-pair oracle checks
        # the diagonal.
        w, h = WAREHOUSE.width, WAREHOUSE.height
        grid = GridMap(w * 4, h * 4, frozenset(
            Cell(x + i * w, y + j * h) for i in range(4) for j in range(4) for x, y in WAREHOUSE.blocked))
        cells = [Cell(x, y) for y in range(grid.height) for x in range(grid.width) if grid.is_free(Cell(x, y))]
        rng = random.Random(28)
        robots, tasks = rng.sample(cells, 32), rng.sample(cells, 32)
        m = build_cost_matrix(grid, robots, tasks)
        sentinel = unreachable_sentinel(grid)
        for r, row in zip(robots, m.costs):
            dist = bfs_distances(grid, r)
            assert row == tuple(dist.get(t, sentinel) for t in tasks)
        for i, (r, t) in enumerate(zip(robots, tasks)):
            assert m.costs[i][i] == bfs_distance(grid, r, t)


class TestHungarian:
    def test_diagonal_is_free(self):
        got = hungarian(CostMatrix.from_rows([[0, 9], [9, 0]]))
        assert got.mapping == (0, 1) and got.total_cost == 0

    def test_small_cross_assignment(self):
        # enumerating [[4,1],[2,3]]: 4+3=7 vs 1+2=3, so robots swap tasks
        got = hungarian(CostMatrix.from_rows([[4, 1], [2, 3]]))
        assert got.mapping == (1, 0) and got.total_cost == 3

    def test_single_cell(self):
        got = hungarian(CostMatrix.from_rows([[7]]))
        assert got.mapping == (0,) and got.total_cost == 7

    def test_ties_break_lexicographically(self):
        got = hungarian(CostMatrix.from_rows([[5, 5], [5, 5]]))
        assert got.mapping == (0, 1)
        got = hungarian(CostMatrix.from_rows([[1, 1, 2], [1, 1, 2], [2, 2, 1]]))
        assert got.mapping == (0, 1, 2)

    def test_row_shift_leaves_mapping_unchanged(self):
        rows = [[4, 1, 6], [2, 3, 3], [5, 0, 4]]
        base = hungarian(CostMatrix.from_rows(rows))
        shifted = [[c + 10 for c in rows[0]]] + rows[1:]
        got = hungarian(CostMatrix.from_rows(shifted))
        assert got.mapping == base.mapping
        assert got.total_cost == base.total_cost + 10

    def test_float_costs(self):
        got = hungarian(CostMatrix.from_rows([[0.5, 1.5], [1.5, 0.5]]))
        assert got.mapping == (0, 1) and got.total_cost == 1.0

    def test_matches_brute_force_on_random_matrices(self):
        # Both the optimal total and the lexicographic tie-break must agree
        # with full permutation enumeration, up to n=7.
        rng = random.Random(101)
        for trial in range(100):
            n = rng.randrange(2, 8)
            rows = [[rng.randrange(0, 30) for _ in range(n)] for _ in range(n)]
            got = hungarian(CostMatrix.from_rows(rows))
            want_map, want_total = brute_force_assignment(rows)
            assert got.total_cost == want_total, f"trial {trial}: {rows}"
            assert got.mapping == want_map, f"trial {trial}: {rows}"

    def test_end_to_end_on_grid(self):
        robots = [Cell(0, 0), Cell(4, 4)]
        tasks = [Cell(4, 0), Cell(0, 3)]
        m = build_cost_matrix(OPEN_5x5, robots, tasks)
        got = hungarian(m)
        want_map, want_total = brute_force_assignment([list(r) for r in m.costs])
        assert got.mapping == want_map and got.total_cost == want_total

    def test_sentinel_steers_away_from_unreachable(self):
        sent = unreachable_sentinel(OPEN_5x5)
        got = hungarian(CostMatrix.from_rows([[sent, 3], [4, sent]]))
        assert got.mapping == (1, 0) and got.total_cost == 7
        assert math.isfinite(got.total_cost)

    def test_float_costs_match_exact_brute_force(self):
        # Ties among float sums such as 0.1+0.2 vs 0.3 must be judged exactly:
        # the oracle enumerates the same costs as Fractions.
        rng = random.Random(7)
        for trial in range(300):
            n = rng.randrange(2, 6)
            rows = [[rng.choice([0.1, 0.2, 0.3, 0.7, 1.1]) for _ in range(n)] for _ in range(n)]
            got = hungarian(CostMatrix.from_rows(rows))
            want_map, want_total = brute_force_assignment([[Fraction(c) for c in r] for r in rows])
            assert len(got.mapping) == n, f"trial {trial}: {rows}"
            assert got.mapping == want_map, f"trial {trial}: {rows}"
            assert got.total_cost == pytest.approx(float(want_total))

    def test_one_solve_per_call(self, monkeypatch):
        calls = []
        real = assignment_module._solve
        monkeypatch.setattr(assignment_module, "_solve", lambda w: calls.append(1) or real(w))
        rows = [[1, 1, 2], [1, 1, 2], [2, 2, 1]]
        assert hungarian(CostMatrix.from_rows(rows)).mapping == (0, 1, 2)
        assert len(calls) == 1

    def test_solve_on_tied_weights_is_the_lexicographic_optimum(self):
        # Costs from {0, 1, 2} tie often; weighted as hungarian weights them,
        # the solve alone must return the smallest optimal mapping.
        rng = random.Random(28)
        for n in range(1, 8):
            for trial in range(12):
                rows = [[rng.randrange(3) for _ in range(n)] for _ in range(n)]
                if trial == 0:
                    rows = [[1] * n for _ in range(n)]
                weights = [[c * n ** n + j * n ** (n - 1 - i) for j, c in enumerate(row)]
                           for i, row in enumerate(rows)]
                want_map, _ = brute_force_assignment(rows)
                assert tuple(_solve(weights)) == want_map, (n, rows)
