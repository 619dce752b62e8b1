"""Independent reference implementations used to check derived test values.

Everything here is deliberately naive: breadth-first search for shortest
distances, full permutation enumeration for assignments, and a literal
per-tick scan for collisions.  The production code must agree with these
on every fixture; the oracles themselves are kept simple enough to audit
by eye.  `reference_astar` is A* on `Cell`s, a closed set and tuple heap
keys, over `naive_neighbors`; the flat-array kernel `planner._astar` must
reproduce it exactly, counters included.  `reference_collision_study` runs
a full `simulate` of every trial at every rate, where
`harness.collision_study` replays only the trials whose plans changed.
"""

import heapq
from collections import deque
from itertools import permutations
from statistics import fmean

from perfplan.executor import simulate
from perfplan.gridworld import Cell
from perfplan.harness import CollisionRow, _build_trials
from perfplan.metrics import perforated_cost, speedup_proxy
from perfplan.planner import FOUND, NOT_FOUND, PerforationSpec, PlanOutcome, manhattan, perforation_schedule


def bfs_distance(grid, start, goal):
    """Shortest path length in edges on the 4-connected grid, or None,
    by breadth-first search over `naive_neighbors`."""
    if start == goal:
        return 0
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        cell, d = frontier.popleft()
        for nb in naive_neighbors(grid, cell):
            if nb in seen:
                continue
            if nb == goal:
                return d + 1
            seen.add(nb)
            frontier.append((nb, d + 1))
    return None


def bfs_distances(grid, start):
    """Shortest path length in edges from `start` to every cell it reaches,
    by one breadth-first search over `naive_neighbors`."""
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        cell = frontier.popleft()
        for nb in naive_neighbors(grid, cell):
            if nb not in dist:
                dist[nb] = dist[cell] + 1
                frontier.append(nb)
    return dist


def naive_free_cells(grid):
    """Every cell of the grid not in `grid.blocked`, in row-major order."""
    return [Cell(x, y) for y in range(grid.height) for x in range(grid.width) if Cell(x, y) not in grid.blocked]


def naive_neighbors(grid, cell):
    """The on-grid cells above, left, right and below `cell` (row-major)
    that are not in `grid.blocked`."""
    x, y = cell
    return [Cell(nx, ny) for nx, ny in ((x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1))
            if 0 <= nx < grid.width and 0 <= ny < grid.height and Cell(nx, ny) not in grid.blocked]


def flood_labels(grid):
    """Component labels by BFS from each unlabelled free cell in row-major
    order, over `naive_neighbors`; cells enter the dict as they are found."""
    labels = {}
    for cell in naive_free_cells(grid):
        if cell in labels:
            continue
        labels[cell] = label = len(set(labels.values()))
        queue = deque([cell])
        while queue:
            for nb in naive_neighbors(grid, queue.popleft()):
                if nb not in labels:
                    labels[nb] = label
                    queue.append(nb)
    return labels


def _reconstruct(came_from, cur):
    path = [cur]
    while cur in came_from:
        cur = came_from[cur]
        path.append(cur)
    path.reverse()
    return tuple(path)


def reference_astar(grid, start, goal, spec, extent):
    """Same contract as `planner._astar`: status, path and counters. It
    shares nothing with the kernel's grid reads: endpoints are checked here
    against the grid's size and `grid.blocked`, and successors come from
    `naive_neighbors`."""
    start, goal = Cell(*start), Cell(*goal)
    for label, (x, y) in (("start", start), ("goal", goal)):
        if not (isinstance(x, int) and isinstance(y, int) and 0 <= x < grid.width and 0 <= y < grid.height
                and Cell(x, y) not in grid.blocked):
            raise ValueError(f"{label} {Cell(x, y)} is blocked or out of range")

    h0 = manhattan(start, goal)
    # Heap keys: (f, h, y, x) -- ties broken by lower h, then row-major cell.
    open_heap = [(h0, h0, start.y, start.x)]
    g = {start: 0}
    came_from = {}
    closed = set()
    expansions = 0
    skipped = 0

    while open_heap:
        _, _, y, x = heapq.heappop(open_heap)
        cur = Cell(x, y)
        if cur in closed:
            continue  # stale heap entry, not a main-loop iteration
        if cur == goal:
            expansions += 1
            return PlanOutcome(FOUND, _reconstruct(came_from, cur), expansions, skipped)
        closed.add(cur)
        ng = g[cur] + 1
        successors = naive_neighbors(grid, cur)
        # This iteration's index: every earlier one was counted once.
        if spec is not None and not perforation_schedule(spec, expansions + skipped, extent):
            skipped += 1
            # Degraded expansion: queue only the most promising successor
            # (lowest h; neighbors come row-major, and min keeps the first).
            successors = [nb for nb in successors if nb not in closed]
            successors = successors and [min(successors, key=lambda c: manhattan(c, goal))]
        else:
            expansions += 1
        for nb in successors:
            if nb in closed:
                continue
            if ng < g.get(nb, 1 << 30):
                g[nb] = ng
                came_from[nb] = cur
                hn = manhattan(nb, goal)
                heapq.heappush(open_heap, (ng + hn, hn, nb.y, nb.x))
    return PlanOutcome(NOT_FOUND, (), expansions, skipped)


def brute_force_assignment(costs):
    """Minimum-cost robot->task permutation by full enumeration.

    Returns (mapping, total).  Ties resolve to the lexicographically
    smallest mapping because permutations() yields in lex order and only
    strict improvements replace the incumbent.
    """
    n = len(costs)
    best_map = None
    best_total = None
    for perm in permutations(range(n)):
        total = sum(costs[i][perm[i]] for i in range(n))
        if best_total is None or total < best_total:
            best_total = total
            best_map = perm
    return best_map, best_total


def scan_collisions(timelines):
    """Exhaustive per-tick collision scan over synchronized timelines.

    Returns a sorted list of (t, kind, (id_a, id_b), cells) tuples using
    the same encoding as executor.CollisionEvent, built without any of the
    production shortcuts: every unordered robot pair is checked at every
    tick for vertex conflicts, and at every transition for swaps.
    """
    events = []
    horizon = timelines[0].horizon
    for a_idx in range(len(timelines)):
        for b_idx in range(a_idx + 1, len(timelines)):
            a = timelines[a_idx]
            b = timelines[b_idx]
            pair = tuple(sorted((a.robot_id, b.robot_id)))
            for t in range(horizon + 1):
                if a.positions[t] == b.positions[t]:
                    events.append((t, "vertex", pair, (a.positions[t],)))
                elif (
                    t > 0
                    and a.positions[t] == b.positions[t - 1]
                    and b.positions[t] == a.positions[t - 1]
                ):
                    cells = (a.positions[t - 1], a.positions[t])
                    if pair[0] != a.robot_id:
                        cells = (cells[1], cells[0])
                    events.append((t, "edge", pair, cells))
    events.sort(key=lambda e: (e[0], e[2], e[1]))
    return events


def naive_render(grid, marks):
    """Map text built one cell at a time: the cell's mark, else '#' for a
    blocked cell, else '.'."""
    return "\n".join(
        "".join(marks.get(Cell(x, y), "#" if Cell(x, y) in grid.blocked else ".") for x in range(grid.width))
        for y in range(grid.height))


def random_walk_timeline(grid, rng, robot_id, horizon):
    """A lawful random timeline: starts anywhere free, may wait or step."""
    from perfplan.executor import Timeline

    free = grid.free_cells()
    cur = free[rng.randrange(len(free))]
    positions = [cur]
    for _ in range(horizon):
        options = [cur] + list(grid.neighbors(cur))
        cur = options[rng.randrange(len(options))]
        positions.append(cur)
    return Timeline(robot_id=robot_id, positions=tuple(positions))


def collision_fixtures(count, seed):
    """Generate `count` timeline groups for detector-vs-oracle comparison.

    Mixes random walks on a small open grid (2-3 robots, horizon <= 40)
    with hand-built forced vertex and swap cases so both event kinds are
    guaranteed to appear in the corpus.
    """
    import random

    from perfplan.executor import Timeline
    from perfplan.gridworld import GridMap

    grid = GridMap(width=5, height=5, blocked=frozenset())
    rng = random.Random(seed)
    fixtures = []

    # Forced swap: adjacent robots exchange cells in one tick.
    fixtures.append(
        [
            Timeline(robot_id=1, positions=(Cell(0, 0), Cell(1, 0))),
            Timeline(robot_id=2, positions=(Cell(1, 0), Cell(0, 0))),
        ]
    )
    # Forced vertex conflict: mover runs into a parked robot.
    fixtures.append(
        [
            Timeline(robot_id=1, positions=(Cell(0, 0), Cell(1, 0), Cell(2, 0))),
            Timeline(robot_id=2, positions=(Cell(2, 0), Cell(2, 0), Cell(2, 0))),
        ]
    )
    while len(fixtures) < count:
        horizon = rng.randrange(1, 41)
        robots = rng.randrange(2, 4)
        fixtures.append(
            [
                random_walk_timeline(grid, rng, rid, horizon)
                for rid in range(1, robots + 1)
            ]
        )
    return fixtures


def reference_collision_study(scenario, rates, n_trials, seed):
    """`harness.collision_study` with every trial simulated at every rate:
    planned, checked, padded into timelines and scanned for collisions."""
    trials = _build_trials(scenario, n_trials, seed)
    rows = []
    for rate in rates:
        spec = PerforationSpec.from_rate(rate)
        n_collision = 0
        proxies = []
        for trial_scenario, exact in trials:
            report = simulate(trial_scenario, spec)
            for rid, out in report.outcomes.items():
                proxies.append(speedup_proxy(
                    exact[rid].expansions, perforated_cost(out.expansions, out.skipped)))
            n_collision += bool(report.collisions)
        rows.append(CollisionRow(rate, n_trials, 100 * n_collision / n_trials, fmean(proxies)))
    return rows
