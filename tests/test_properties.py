"""Property tests over random small grids, tasks, timelines and cost matrices.

They back the seeded example tests with generated inputs; the module is
skipped when hypothesis (the `test` extra) is not installed.
"""

import heapq
from fractions import Fraction
from types import SimpleNamespace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from oracles import (  # noqa: E402
    bfs_distance,
    brute_force_assignment,
    flood_labels,
    naive_free_cells,
    naive_neighbors,
    naive_render,
    reference_astar,
    reference_plan,
    scan_collisions,
)
from perfplan.assignment import CostMatrix, build_cost_matrix, hungarian, unreachable_sentinel  # noqa: E402
from perfplan.executor import _PER_TICK_ROBOTS, detect_collisions, path_to_timeline, replay, simulate  # noqa: E402
from perfplan.gridworld import (  # noqa: E402
    Cell,
    GridMap,
    RobotTask,
    Scenario,
    ScenarioError,
    _parse_cell,
    _render_grid,
    builtin_scenario,
    component_labels,
    load_scenario,
    render_scenario,
)
from perfplan import planner  # noqa: E402
from perfplan.planner import (  # noqa: E402
    FOUND,
    MODES,
    NO_PERFORATION,
    TRUNCATION,
    PerforationSpec,
    PlanOutcome,
    _astar,
    astar_exact,
    astar_perforated,
    manhattan,
    plan_multi_leg,
)

SETTINGS = settings(max_examples=60, deadline=None)
# Searches and replays on small grids are cheap; more examples reach the
# rarer cases (detours around obstacles, head-on swaps).
SEARCH_SETTINGS = settings(max_examples=200, deadline=None)


@st.composite
def scenarios(draw):
    """A valid scenario: a grid of up to 6x6 with 1-4 robots on free cells."""
    width = draw(st.integers(1, 6))
    height = draw(st.integers(1, 6))
    cells = [Cell(x, y) for y in range(height) for x in range(width)]
    assume(len(cells) >= 2)
    blocked = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 2))
    free = [c for c in cells if c not in blocked]
    tasks = []
    for robot_id in draw(st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True)):
        start = draw(st.sampled_from(free))
        waypoints = tuple(draw(st.lists(st.sampled_from(free), max_size=2)))
        goal = draw(st.sampled_from([c for c in free if c != start] if not waypoints else free))
        tasks.append(RobotTask(robot_id, start, goal, waypoints))
    return Scenario("prop", GridMap(width, height, frozenset(blocked)), tuple(tasks))


def _task_line(task):
    via = f" via {';'.join(f'{w.x},{w.y}' for w in task.waypoints)}" if task.waypoints else ""
    return f"robot {task.robot_id} start {task.start.x},{task.start.y}{via} goal {task.goal.x},{task.goal.y}"


@SETTINGS
@given(scenarios())
def test_render_then_load_round_trips(scenario):
    assert load_scenario(render_scenario(scenario), name=scenario.name) == scenario


@SETTINGS
@given(scenarios(), st.data())
def test_invalid_task_is_rejected_alike_from_text_and_objects(scenario, data):
    grid = scenario.grid
    index = data.draw(st.integers(0, len(scenario.tasks) - 1))
    task = scenario.tasks[index]
    kinds = ["range", "same"] + (["blocked"] if grid.blocked else []) + (["dup"] if index else [])
    kind = data.draw(st.sampled_from(kinds))
    field = data.draw(st.sampled_from(["start", "goal"] + (["waypoints"] if task.waypoints else [])))
    if kind == "dup":
        bad = RobotTask(scenario.tasks[0].robot_id, task.start, task.goal, task.waypoints)
    elif kind == "same":
        bad = RobotTask(task.robot_id, task.start, task.start)
    else:
        cell = (data.draw(st.sampled_from([Cell(grid.width, 0), Cell(0, grid.height), Cell(-1, 0)]))
                if kind == "range" else data.draw(st.sampled_from(sorted(grid.blocked))))
        parts = {"start": task.start, "goal": task.goal, "waypoints": task.waypoints}
        parts[field] = (cell,) if field == "waypoints" else cell
        bad = RobotTask(task.robot_id, **parts)
    tasks = scenario.tasks[:index] + (bad,)

    with pytest.raises(ValueError) as from_object:
        Scenario("prop", grid, tasks)
    lines = render_scenario(Scenario("prop", grid, tasks[:-1])).splitlines()
    text = "\n".join(lines + [_task_line(bad)]) + "\n"
    with pytest.raises(ScenarioError) as from_text:
        load_scenario(text)
    assert from_text.value.line == len(lines) + 1
    assert str(from_text.value) == f"line {len(lines) + 1}: {from_object.value}"


@SETTINGS
@given(st.builds(Cell, st.integers(), st.integers()))
def test_cell_text_round_trips(cell):
    assert _parse_cell(str(cell)) == cell


def _matrices(values):
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n))


@SETTINGS
@given(st.one_of(
    _matrices(st.integers(0, 9)),
    _matrices(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1])),
    _matrices(st.floats(0, 100, allow_nan=False, allow_infinity=False)),
))
def test_hungarian_matches_exact_brute_force(rows):
    got = hungarian(CostMatrix.from_rows(rows))
    want_map, want_total = brute_force_assignment([[Fraction(c) for c in row] for row in rows])
    assert got.mapping == want_map
    assert got.total_cost == pytest.approx(float(want_total))


@st.composite
def grids(draw, max_side=8):
    """A grid of up to max_side x max_side, at most half of it blocked."""
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    cells = [Cell(x, y) for y in range(height) for x in range(width)]
    blocked = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 2))
    return GridMap(width, height, frozenset(blocked))


@SETTINGS
@given(grids(max_side=12), st.data())
def test_render_grid_matches_cell_by_cell_render(grid, data):
    marks = data.draw(st.dictionaries(st.sampled_from(grid.free_cells()), st.sampled_from("*SGV+X0123456789")))
    assert _render_grid(grid, marks) == naive_render(grid, marks)
    assert _render_grid(grid) == naive_render(grid, {})


@SETTINGS
@given(grids())
def test_each_mask_index_has_one_shared_cell(grid):
    w = grid.width + 2
    for i in range(len(grid._mask)):
        cell = grid._cell(i)
        assert type(cell) is Cell and cell == Cell(i % w - 1, i // w - 1)
        assert grid._cell(i) is cell


@SETTINGS
@given(grids(max_side=12))
def test_cell_queries_match_naive_oracles(grid):
    assert grid.free_cells() == naive_free_cells(grid)
    for cell in (Cell(x, y) for y in range(grid.height) for x in range(grid.width)):
        assert grid.neighbors(cell) == naive_neighbors(grid, cell)
    assert list(component_labels(grid).items()) == list(flood_labels(grid).items())


@SETTINGS
@given(grids())
def test_free_index_is_the_padded_index_of_free_cells_only(grid):
    # A box two cells beyond each edge: the padded index of a cell two
    # columns off the grid lands on a cell of another row.
    w = grid.width + 2
    box = [Cell(x, y) for y in range(-2, grid.height + 2) for x in range(-2, grid.width + 2)]
    free_cells = set(naive_free_cells(grid))
    want = []
    for cell in box:
        free = cell in free_cells
        index = grid._free_index(cell)
        assert (index != 0) == free
        if free:
            assert index == (cell.y + 1) * w + cell.x + 1
            want.append(index)
    assert grid._free_indices(box) == want


@st.composite
def grid_queries(draw):
    """A grid of up to 8x8 with two free cells on it (equal or not, joined or not)."""
    grid = draw(grids())
    free = grid.free_cells()
    return grid, draw(st.sampled_from(free)), draw(st.sampled_from(free))


@st.composite
def dispatches(draw):
    """A grid of up to 12x12 with 1-6 robot cells and as many task cells.

    Task cells are drawn with extra weight on edge cells and on the robots'
    own cells, so tasks on the border, repeated tasks and robots standing
    on a task come up often."""
    grid = draw(grids(max_side=12))
    free = grid.free_cells()
    edge = [c for c in free if c.x in (0, grid.width - 1) or c.y in (0, grid.height - 1)]
    n = draw(st.integers(1, 6))
    robots = draw(st.lists(st.sampled_from(free), min_size=n, max_size=n))
    tasks = draw(st.lists(st.sampled_from(free + edge + robots), min_size=n, max_size=n))
    return grid, robots, tasks


def perforation_specs(skip=st.integers(0, 9)):
    return st.builds(
        lambda mode, seed, skip, extra: PerforationSpec(mode, skip, skip + extra, seed=seed),
        st.sampled_from(MODES), st.integers(0, 2**16), skip,
        st.integers(1, 9))


@SEARCH_SETTINGS
@given(grid_queries())
def test_exact_astar_length_equals_bfs(query):
    grid, start, goal = query
    out = astar_exact(grid, start, goal)
    assert (out.edges if out.found else None) == bfs_distance(grid, start, goal)


@st.composite
def corridor_queries(draw):
    """A serpentine grid of 9x9 to 24x24 and two free cells on it: walls
    across the whole grid every 2-4 lines, each with one gap, so the way to
    the goal often leads away from it first."""
    across = draw(st.integers(9, 24))
    along = draw(st.integers(9, 24))
    walls = []
    line = draw(st.integers(1, 3))
    while line < along - 1:
        gap = draw(st.integers(0, across - 1))
        walls.extend((i, line) for i in range(across) if i != gap)
        line += draw(st.integers(2, 4))
    if draw(st.booleans()):  # walls run along x, else along y
        grid = GridMap(across, along, frozenset(Cell(i, j) for i, j in walls))
    else:
        grid = GridMap(along, across, frozenset(Cell(j, i) for i, j in walls))
    free = grid.free_cells()
    return grid, draw(st.sampled_from(free)), draw(st.sampled_from(free))


@SEARCH_SETTINGS
@given(corridor_queries())
def test_exact_astar_length_equals_bfs_in_corridors(query):
    grid, start, goal = query
    assert astar_exact(grid, start, goal).edges == bfs_distance(grid, start, goal)


@SEARCH_SETTINGS
@given(grid_queries(), perforation_specs())
def test_found_perforated_paths_are_lawful(query, spec):
    grid, start, goal = query
    out = astar_perforated(grid, start, goal, spec)
    if out.found:
        assert out.path[0] == start and out.path[-1] == goal
        assert all(grid.is_free(cell) for cell in out.path)
        assert all(manhattan(a, b) == 1 for a, b in zip(out.path, out.path[1:]))
        w = grid.width + 2
        assert all(cell is grid._cell((cell.y + 1) * w + cell.x + 1) for cell in out.path)
    else:  # only a search that perforated something may miss a reachable goal
        assert out.path == ()
        assert out.skipped > 0 or bfs_distance(grid, start, goal) is None


@SEARCH_SETTINGS
@given(grid_queries(), perforation_specs(skip=st.just(0)))
def test_rate_zero_is_exact_astar_in_every_mode(query, spec):
    grid, start, goal = query
    assert astar_perforated(grid, start, goal, spec) == astar_exact(grid, start, goal)


@st.composite
def grid_tasks(draw):
    """A grid of up to 8x8 and a task on its free cells with 0-2 waypoints;
    stops may repeat, so a leg of no edge comes up too."""
    grid = draw(grids())
    stops = draw(st.lists(st.sampled_from(grid.free_cells()), min_size=2, max_size=4))
    return grid, RobotTask(1, stops[0], stops[-1], tuple(stops[1:-1]))


@SEARCH_SETTINGS
@given(grid_tasks(), perforation_specs())
def test_a_plan_is_the_reference_plan(query, spec):
    # Legs that walk and legs whose walk dead-ends, joined as the oracle
    # joins them.
    grid, task = query
    assert plan_multi_leg(grid, task, spec) == reference_plan(grid, task, spec)


def long_run_specs():
    """Windows of 4 to 60 with skip within 3 of the window, in every mode,
    so that modulo runs of perforated iterations reach up to 59 steps."""
    return st.builds(
        lambda mode, seed, window, gap: PerforationSpec(mode, window - gap, window, seed=seed),
        st.sampled_from(MODES), st.integers(0, 2**16), st.integers(4, 60), st.integers(1, 3))


@SEARCH_SETTINGS
@given(st.one_of(grid_queries(), corridor_queries()), st.one_of(perforation_specs(), long_run_specs()))
def test_kernel_matches_reference_search(query, spec):
    grid, start, goal = query
    extent = reference_astar(grid, start, goal, None, None).expansions if spec.mode == TRUNCATION else None
    assert _astar(grid, start, goal, spec, extent) == reference_astar(grid, start, goal, spec, extent)


@st.composite
def aligned_queries(draw, queries):
    """A query from `queries` whose goal is redrawn to share the start's row
    or column, so the search runs along x == goal x or y == goal y, where
    a step either way moves away from the goal."""
    grid, start, _ = draw(queries)
    return grid, start, draw(st.sampled_from(
        [c for c in grid.free_cells() if c.x == start.x or c.y == start.y]))


@SEARCH_SETTINGS
@given(st.one_of(grid_queries(), corridor_queries(),
                 aligned_queries(grid_queries()), aligned_queries(corridor_queries())),
       st.one_of(st.just(NO_PERFORATION), perforation_specs()))
def test_every_queued_key_holds_the_cells_manhattan_h_at_a_relaxed_level(query, spec):
    # Each key pushed onto the current level, or promoted from the next,
    # must be h*n + cell, with h the Manhattan distance from the cell to
    # the goal, and its level must be a g + h the reference relaxed for
    # that cell. The level starts at the start's h and rises by 2 at each
    # promotion. The reference queues every (g + h, h, y, x) it relaxes,
    # so its keys give the levels. A wrong h shows here even where it
    # leaves the pop order of a query unchanged.
    grid, start, goal = query
    extent = reference_astar(grid, start, goal, None, None).expansions if spec.mode == TRUNCATION else None
    level = [manhattan(start, goal)]
    handed, relaxed = [], []

    def push(heap, key):
        handed.append((level[0], key))
        heapq.heappush(heap, key)

    def promote(heap):
        level[0] += 2
        handed.extend((level[0], key) for key in heap)
        heapq.heapify(heap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "heapq", SimpleNamespace(heappush=push, heapify=promote, heappop=heapq.heappop))
        mp.setattr(oracles, "heapq", SimpleNamespace(
            heappush=lambda heap, key: relaxed.append(key) or heapq.heappush(heap, key),
            heappop=heapq.heappop))
        assert _astar(grid, start, goal, spec, extent) == reference_astar(grid, start, goal, spec, extent)
    w, n = grid.width + 2, len(grid._mask)
    want = {(f, manhattan(Cell(x, y), goal) * n + (y + 1) * w + x + 1) for f, _, y, x in relaxed}
    assert len(set(handed)) == len(handed)
    assert set(handed) <= want, sorted((f, k % n % w - 1, k % n // w - 1, k // n)
                                       for f, k in set(handed) - want)


@SEARCH_SETTINGS
@given(dispatches())
# Row ends that an unpadded mask would join, a repeated task on an edge
# cell, and a robot standing on a task.
@example((GridMap(3, 2, frozenset({Cell(0, 0), Cell(1, 1), Cell(2, 1)})),
          [Cell(2, 0), Cell(0, 1), Cell(1, 0)], [Cell(0, 1), Cell(2, 0), Cell(2, 0)]))
def test_cost_matrix_equals_bfs(dispatch):
    grid, robots, tasks = dispatch
    sentinel = unreachable_sentinel(grid)
    want = tuple(tuple(sentinel if (d := bfs_distance(grid, r, t)) is None else d for t in tasks)
                 for r in robots)
    assert build_cost_matrix(grid, robots, tasks).costs == want


_MOVES = ((0, 0), (0, -1), (-1, 0), (1, 0), (0, 1))


@st.composite
def padded_timelines(draw, min_robots=2, max_pad=3):
    """`min_robots` to 24 lawful random walks (waits allowed) on one grid of
    up to 3x3, so that robots meet often, padded to a shared horizon by
    parking each robot on its last cell, up to `max_pad` ticks past the
    longest walk. By default groups reach both sides of the detector's
    _PER_TICK_ROBOTS threshold."""
    grid = draw(grids(max_side=3))
    free = grid.free_cells()
    paths = {}
    for robot_id in draw(st.lists(st.integers(0, 99), min_size=min_robots, max_size=24, unique=True)):
        path = [draw(st.sampled_from(free))]
        for dx, dy in draw(st.lists(st.sampled_from(_MOVES), min_size=4, max_size=16)):
            nxt = Cell(path[-1].x + dx, path[-1].y + dy)
            path.append(nxt if grid.is_free(nxt) else path[-1])
        paths[robot_id] = path
    horizon = max(len(path) for path in paths.values()) - 1 + draw(st.integers(0, max_pad))
    return [path_to_timeline(rid, path, horizon) for rid, path in paths.items()]


@SEARCH_SETTINGS
@given(padded_timelines())
def test_detector_matches_exhaustive_scan(timelines):
    got = [(e.t, e.kind, e.robots, e.cells) for e in detect_collisions(timelines)]
    assert got == scan_collisions(timelines)


# The events depend on the timelines alone: any order of a group, on either
# side of the threshold, gives the same tuple.
@SETTINGS
@given(padded_timelines(), st.data())
def test_every_order_of_the_timelines_gives_the_same_events(timelines, data):
    assert detect_collisions(data.draw(st.permutations(timelines))) == detect_collisions(timelines)


# Every group here takes the per-tick path, and long parked tails make the
# parked robots' index and their events to the horizon carry most ticks.
# Drawing up to 24 walks is slow, so this takes fewer examples.
@SETTINGS
@given(padded_timelines(min_robots=_PER_TICK_ROBOTS + 1, max_pad=20))
def test_detector_matches_exhaustive_scan_on_large_groups(timelines):
    got = [(e.t, e.kind, e.robots, e.cells) for e in detect_collisions(timelines)]
    assert got == scan_collisions(timelines)


def _walk(draw, grid, min_size=0, max_size=10):
    """A lawful random walk on `grid` (waits allowed) from a free cell."""
    path = [draw(st.sampled_from(grid.free_cells()))]
    for dx, dy in draw(st.lists(st.sampled_from(_MOVES), min_size=min_size, max_size=max_size)):
        nxt = Cell(path[-1].x + dx, path[-1].y + dy)
        path.append(nxt if grid.is_free(nxt) else path[-1])
    return path


@st.composite
def faulty_plans(draw):
    """1 to 6 lawful walks on a grid of up to 5x5, one of whose cells is
    replaced by a blocked cell, a cell off the grid (some of whose padded
    mask indices land on a free cell of another row), a cell with a
    coordinate that is no int, or a free cell, which usually makes a
    non-adjacent step."""
    grid = draw(grids(max_side=5))
    paths = {rid: _walk(draw, grid) for rid in range(1, draw(st.integers(1, 6)) + 1)}
    path = paths[draw(st.sampled_from(sorted(paths)))]
    t = draw(st.integers(0, len(path) - 1))
    x, y = path[t]
    w, h = grid.width, grid.height
    kind = draw(st.sampled_from(("blocked", "off-grid", "non-int", "free")))
    if kind == "blocked":
        assume(grid.blocked)
        fault = draw(st.sampled_from(sorted(grid.blocked)))
    elif kind == "off-grid":
        fault = draw(st.sampled_from([Cell(-1, y), Cell(-3, y), Cell(w, y), Cell(w + 2, y),
                                      Cell(x, -1), Cell(x, -h - 3), Cell(x, h), Cell(x, h + 2)]))
    elif kind == "non-int":
        fault = draw(st.sampled_from([Cell(x + 0.5, y), Cell(float(x), y), Cell(x, float(y)),
                                      Cell(str(x), y), Cell(x, None)]))
    else:
        fault = draw(st.sampled_from(grid.free_cells()))
    path[t] = fault
    return grid, paths


def _reference_replay_error(grid, paths):
    """The error that replaying found `paths` (robot id -> cells, in id
    order) must raise, or None: every cell of every path is scanned, then
    every step of every path."""
    for rid, path in paths.items():
        for cell in path:
            x, y = cell
            if (not (type(x) is int and type(y) is int and 0 <= x < grid.width and 0 <= y < grid.height)
                    or cell in grid.blocked):
                return RuntimeError(f"robot {rid}: planned path crosses blocked cell {cell}")
    for path in paths.values():
        for t, (a, b) in enumerate(zip(path, path[1:]), 1):
            if abs(a.x - b.x) + abs(a.y - b.y) > 1:
                return ValueError(f"non-adjacent step {a} -> {b} at tick {t}")
    return None


@SEARCH_SETTINGS
@given(faulty_plans())
def test_replay_raises_what_a_cell_then_step_scan_predicts(plans):
    grid, paths = plans
    outcomes = {rid: PlanOutcome(FOUND, tuple(path), 1, 0) for rid, path in paths.items()}
    want = _reference_replay_error(grid, paths)
    if want is None:
        report = replay(SimpleNamespace(grid=grid), outcomes)
        assert [tl.positions[:len(paths[tl.robot_id])] for tl in report.timelines] == list(map(tuple, paths.values()))
        assert [(e.t, e.kind, e.robots, e.cells) for e in report.collisions] == scan_collisions(report.timelines)
    else:
        with pytest.raises((RuntimeError, ValueError)) as caught:
            replay(SimpleNamespace(grid=grid), outcomes)
        assert (type(caught.value), str(caught.value)) == (type(want), str(want))


def _tiled_warehouse(nx, ny):
    tile = builtin_scenario("warehouse").grid
    return GridMap(tile.width * nx, tile.height * ny, frozenset(
        (x + i * tile.width, y + j * tile.height) for i in range(nx) for j in range(ny) for x, y in tile.blocked))


_TILED = _tiled_warehouse(2, 1)


@st.composite
def warehouse_groups(draw):
    """6 to 24 robots with 0 to 2 waypoints each on the built-in warehouse
    tiled 2x1 (48x21), and a spec to plan them with."""
    free = _TILED.free_cells()
    tasks = []
    for rid in range(1, draw(st.integers(6, 24)) + 1):
        stops = draw(st.lists(st.sampled_from(free), min_size=2, max_size=4, unique=True))
        tasks.append(RobotTask(rid, stops[0], stops[-1], tuple(stops[1:-1])))
    return Scenario("tiled", _TILED, tuple(tasks)), draw(st.one_of(st.just(NO_PERFORATION), perforation_specs()))


# Large groups replay through `replay` itself: the detector runs on the
# replayed paths' mask indices and decodes only the events' cells.
@settings(max_examples=30, deadline=None)
@given(warehouse_groups())
def test_large_group_replay_matches_exhaustive_scan(group):
    scenario, spec = group
    report = simulate(scenario, spec)
    assume(len(report.timelines) > _PER_TICK_ROBOTS)
    assert [(e.t, e.kind, e.robots, e.cells) for e in report.collisions] == scan_collisions(report.timelines)
    w = _TILED.width + 2
    for cell in (cell for e in report.collisions for cell in e.cells):
        assert cell is _TILED._cell((cell.y + 1) * w + cell.x + 1)
