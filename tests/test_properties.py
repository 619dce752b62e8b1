"""Property tests over random small grids, tasks and cost matrices.

They back the seeded example tests with generated inputs; the module is
skipped when hypothesis (the `test` extra) is not installed.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import brute_force_assignment  # noqa: E402
from perfplan.assignment import CostMatrix, hungarian  # noqa: E402
from perfplan.gridworld import (  # noqa: E402
    Cell,
    GridMap,
    RobotTask,
    Scenario,
    ScenarioError,
    load_scenario,
    render_scenario,
)

SETTINGS = settings(max_examples=60, deadline=None)


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
