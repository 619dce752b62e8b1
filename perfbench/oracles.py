"""Reference checks written independently of the package under test.

Each oracle reads only plain data (grid size and blocked cells, cost rows,
per-tick positions) and calls no perfplan function, so a defect in the package
cannot hide itself by also corrupting its judge.
"""

from __future__ import annotations

from collections import deque


def adjacency(grid) -> list:
    """Free 4-neighbours of every cell as flat indices y * width + x (empty for blocked cells)."""
    w, h = grid.width, grid.height
    free = bytearray([1]) * (w * h)
    for x, y in grid.blocked:
        free[y * w + x] = 0
    table = []
    for i in range(w * h):
        x, y = i % w, i // w
        table.append(tuple(j for j, ok in ((i - w, y > 0), (i - 1, x > 0), (i + 1, x < w - 1),
                                           (i + w, y < h - 1)) if ok and free[i] and free[j]))
    return table


def bfs_distances(adj: list, source: int, target: int = -1) -> list:
    """Unit-cost distances from flat index `source` (-1 where unreached).

    Stops once `target` leaves the queue; only its entry is then final."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        if cur == target:
            break
        d = dist[cur] + 1
        for nxt in adj[cur]:
            if dist[nxt] < 0:
                dist[nxt] = d
                queue.append(nxt)
    return dist


def path_problem(grid, path, start, goal) -> str | None:
    """Why `path` is not a lawful start-to-goal walk on `grid`, or None if it is."""
    if not path:
        return "empty path"
    if tuple(path[0]) != tuple(start) or tuple(path[-1]) != tuple(goal):
        return f"path runs {tuple(path[0])}->{tuple(path[-1])}, expected {tuple(start)}->{tuple(goal)}"
    for x, y in path:
        if not (0 <= x < grid.width and 0 <= y < grid.height) or (x, y) in grid.blocked:
            return f"path enters blocked or out-of-range cell {(x, y)}"
    for (ax, ay), (bx, by) in zip(path, path[1:]):
        if abs(ax - bx) + abs(ay - by) != 1:
            return f"non-adjacent step {(ax, ay)}->{(bx, by)}"
    return None


def min_assignment_total(costs) -> float:
    """Optimal total of a square assignment problem: shortest augmenting
    paths over row/column potentials, O(n^3)."""
    n = len(costs)
    inf = float("inf")
    row_pot = [0.0] * (n + 1)
    col_pot = [0.0] * (n + 1)
    owner = [0] * (n + 1)  # owner[j]: 1-based row matched to column j; column 0 is the root
    for row in range(1, n + 1):
        owner[0] = row
        col = 0
        slack = [inf] * (n + 1)
        prev = [0] * (n + 1)
        done = [False] * (n + 1)
        while owner[col]:
            done[col] = True
            r = owner[col]
            delta, nxt = inf, 0
            for j in range(1, n + 1):
                if done[j]:
                    continue
                reduced = costs[r - 1][j - 1] - row_pot[r] - col_pot[j]
                if reduced < slack[j]:
                    slack[j], prev[j] = reduced, col
                if slack[j] < delta:
                    delta, nxt = slack[j], j
            for j in range(n + 1):
                if done[j]:
                    row_pot[owner[j]] += delta
                    col_pot[j] -= delta
                else:
                    slack[j] -= delta
            col = nxt
        while col:
            owner[col] = owner[prev[col]]
            col = prev[col]
    return sum(costs[owner[j] - 1][j - 1] for j in range(1, n + 1))


def collision_events(timelines) -> list:
    """Vertex and swap events from one hash of occupied cells and moves per tick.

    `timelines` maps robot id -> equal-length position lists. Events are
    (t, kind, (id_a, id_b), cells) with id_a < id_b, sorted like the package's
    detector: by tick, then robot pair.
    """
    ids = sorted(timelines)
    horizon = len(timelines[ids[0]]) if ids else 0
    events = []
    for t in range(horizon):
        at_cell: dict = {}
        moves: dict = {}
        for rid in ids:
            cur = tuple(timelines[rid][t])
            at_cell.setdefault(cur, []).append(rid)
            if t > 0:
                prev = tuple(timelines[rid][t - 1])
                if prev != cur:
                    moves.setdefault((prev, cur), []).append(rid)
        for cell, here in at_cell.items():
            for i, a in enumerate(here):
                for b in here[i + 1:]:
                    events.append((t, "vertex", (a, b), (cell,)))
        for (prev, cur), movers in moves.items():
            for a in movers:
                for b in moves.get((cur, prev), ()):
                    if a < b:
                        events.append((t, "edge", (a, b), (prev, cur)))
    events.sort(key=lambda e: (e[0], e[2], e[1]))
    return events
