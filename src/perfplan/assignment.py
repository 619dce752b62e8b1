"""One-task-to-one-robot assignment over a path-length cost matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gridworld import GridMap, _as_cell

# Mask bytes 0/1 as the digits of a base-2 int: see build_cost_matrix.
# Base-2 int() is exempt from the interpreter's max-str-digits limit.
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def unreachable_sentinel(grid: GridMap) -> int:
    """Cost used for robot/task pairs with no connecting path.

    width*height + 1 strictly exceeds any simple path length on the grid, so
    the sentinel never beats a feasible route.
    """
    return grid.width * grid.height + 1


@dataclass(frozen=True)
class CostMatrix:
    """Square matrix: costs[i][j] = edge cost of robot i doing task j."""

    n: int
    costs: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cost matrix needs at least one robot/task")
        if len(self.costs) != self.n or any(len(row) != self.n for row in self.costs):
            raise ValueError(f"cost matrix must be {self.n}x{self.n}")
        for row in self.costs:
            for c in row:
                if not (math.isfinite(c) and c >= 0):
                    raise ValueError(f"costs must be finite and >= 0, got {c!r}")

    @classmethod
    def from_rows(cls, rows) -> "CostMatrix":
        return cls(len(rows), tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class Assignment:
    """mapping[i] = task index worked by robot i; total_cost = matrix sum."""

    mapping: tuple
    total_cost: float

    def __post_init__(self):
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError(f"mapping {self.mapping} is not a permutation")


def build_cost_matrix(grid: GridMap, robot_cells, task_cells) -> CostMatrix:
    """Shortest-path edge count per (robot, task) pair; sentinel when unreachable.

    One breadth-first search per robot, run as a bit-parallel wavefront.
    The padded occupancy mask becomes one int whose bit i is mask byte i,
    so a cell's four neighbors are the shifts by 1 and by w = width + 2.
    The blocked border stops a shift from wrapping into the next row. Each
    level is the previous one's neighbors masked by the free cells not yet
    reached; a task cell gets the level that first covers it. The offsets
    factor as {-w, -1, +1, +w} = {-w, -1} + {0, w + 1}, so the neighbors
    take three shifts: g = front >> w | front >> 1, then g | g << (w + 1).
    Every front bit is a free interior cell, at index >= w + 1, so neither
    right shift drops a bit and the set is the four shifts' union. A
    robot's search stops once it has reached all its task cells or its
    wavefront dies out. BFS distances equal exact A*'s edge counts.
    """
    robots = list(map(_as_cell, robot_cells))
    tasks = list(map(_as_cell, task_cells))
    if not robots or len(robots) != len(tasks):
        raise ValueError("need equal, non-empty robot and task cell lists")
    at = [grid._free_index(c) for c in robots + tasks]
    if 0 in at:
        raise ValueError(f"cell {(robots + tasks)[at.index(0)]} is blocked or out of range")
    sentinel = unreachable_sentinel(grid)
    w = grid.width + 2
    up = w + 1
    free = int(grid._mask[::-1].translate(_BIT_DIGITS), 2)
    task_at = at[len(robots):]
    all_targets = sum(1 << i for i in set(task_at))
    rows = []
    for i in at[:len(robots)]:
        front = 1 << i
        avail = free ^ front
        targets = all_targets
        found = {}  # task bit index -> distance
        d = 0
        while front:
            hit = front & targets
            if hit:
                targets ^= hit
                while hit:
                    low = hit & -hit
                    found[low.bit_length() - 1] = d
                    hit ^= low
                if not targets:
                    break
            g = front >> w | front >> 1
            front = (g | g << up) & avail
            avail ^= front
            d += 1
        rows.append(tuple(found.get(i, sentinel) for i in task_at))
    return CostMatrix(len(rows), tuple(rows))


def _solve(costs) -> list:
    """Minimum-cost perfect matching, Hungarian method with potentials.

    Standard O(n^3) formulation (Kuhn 1955); returns mapping[i] = column of
    row i. Among several optima it returns an arbitrary one. Each row step
    scans only the columns not yet in the alternating tree, in ascending
    order, so a tie on the slack picks the lowest column, and shifts the
    potentials of the tree's columns only.
    """
    n = len(costs)
    inf = float("inf")
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to column j, 1-based
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        free = list(range(1, n + 1))  # columns not in the tree, ascending
        tree = [0]
        while True:
            i0 = match[j0]
            row = costs[i0 - 1]
            ui = u[i0]
            delta = inf
            j1 = 0
            for j in free:
                cur = row[j - 1] - ui - v[j]
                m = minv[j]
                if cur < m:
                    minv[j] = m = cur
                    way[j] = j0
                if m < delta:
                    delta = m
                    j1 = j
            for j in tree:
                u[match[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
            free.remove(j0)
            tree.append(j0)
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return sorted(range(n), key=lambda j: match[j + 1])


def hungarian(cost: CostMatrix) -> Assignment:
    """Minimum-total-cost assignment, lexicographically smallest among optima.

    One solve in exact integers: costs are scaled by the common denominator
    of their exact ratios, then weighted as c*n^n + j*n^(n-1-i). The
    tie-break term summed over a mapping is that mapping read as a base-n
    number, always below n^n, so the weighted problem's unique optimum is the
    lexicographically smallest optimum of the original one.
    """
    n = cost.n
    ratios = [[c.as_integer_ratio() for c in row] for row in cost.costs]
    scale = math.lcm(*(den for row in ratios for _, den in row))
    top = n ** n
    weights = []
    for i, row in enumerate(ratios):
        place = n ** (n - 1 - i)
        weights.append([num * (scale // den) * top + j * place
                        for j, (num, den) in enumerate(row)])
    mapping = tuple(_solve(weights))
    return Assignment(mapping, sum(cost.costs[i][j] for i, j in enumerate(mapping)))
