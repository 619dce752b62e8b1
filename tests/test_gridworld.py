"""Grid model, scenario file parsing, and seeded endpoint sampling."""

import random
import re
import time

import pytest

from oracles import bfs_distance, flood_labels
from perfplan.gridworld import (
    BUILTIN_NAMES,
    Cell,
    GridMap,
    RobotTask,
    Scenario,
    ScenarioError,
    _parse_cell,
    builtin_scenario,
    component_labels,
    load_scenario,
    random_endpoints,
    render_scenario,
)
from perfplan.planner import astar_exact

OPEN_5x5 = GridMap(width=5, height=5, blocked=frozenset())

# A 5x5 grid split into two components by a full-height wall at x=2.
SPLIT_5x5 = GridMap(
    width=5, height=5, blocked=frozenset(Cell(2, y) for y in range(5))
)


class TestGridMap:
    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ValueError):
            GridMap(width=0, height=5, blocked=frozenset())
        with pytest.raises(ValueError):
            GridMap(width=5, height=-1, blocked=frozenset())

    def test_rejects_out_of_range_obstacle(self):
        with pytest.raises(ValueError):
            GridMap(width=3, height=3, blocked=frozenset({Cell(3, 0)}))

    def test_rejects_fully_blocked_grid(self):
        cells = frozenset(Cell(x, y) for x in range(2) for y in range(2))
        with pytest.raises(ValueError):
            GridMap(width=2, height=2, blocked=cells)

    def test_is_free_and_in_bounds(self):
        grid = GridMap(width=3, height=2, blocked=frozenset({Cell(1, 0)}))
        assert grid.in_bounds(Cell(2, 1))
        assert not grid.in_bounds(Cell(3, 0))
        assert not grid.in_bounds(Cell(0, -1))
        assert grid.is_free(Cell(0, 0))
        assert not grid.is_free(Cell(1, 0))
        assert not grid.is_free(Cell(-1, 0))

    def test_rejects_non_integer_coordinates(self):
        # Such a cell is not on the grid: it is out of range, not free, and
        # no obstacle or task may sit on it.
        grid = GridMap(width=3, height=3, blocked=frozenset())
        assert not grid.in_bounds(Cell(0.5, 0))
        assert not grid.in_bounds(Cell(1, 1.0))
        assert not grid.is_free(Cell(0.5, 0))
        with pytest.raises(ValueError, match="out of range"):
            GridMap(width=3, height=3, blocked=frozenset({(1.0, 1)}))
        with pytest.raises(ValueError, match="out of range"):
            Scenario("s", grid, (RobotTask(1, Cell(0.5, 0), Cell(2, 2)),))

    def test_mask_is_not_a_field(self):
        a = GridMap(width=3, height=2, blocked=frozenset({Cell(1, 0)}))
        b = GridMap(width=3, height=2, blocked=frozenset({(1, 0)}))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "GridMap(width=3, height=2, blocked=frozenset({Cell(x=1, y=0)}))"
        assert a._mask == bytes([0] * 5 + [0, 1, 0, 1, 0] + [0, 1, 1, 1, 0] + [0] * 5)

    def test_filled_cell_slots_are_not_a_field(self):
        used = GridMap(width=3, height=2, blocked=frozenset({Cell(1, 0)}))
        fresh = GridMap(width=3, height=2, blocked=frozenset({Cell(1, 0)}))
        assert astar_exact(used, Cell(0, 0), Cell(2, 0)).found and any(used._cells)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) and "_cells" not in repr(used)

    def test_neighbors_row_major_order(self):
        assert OPEN_5x5.neighbors(Cell(2, 2)) == [
            Cell(2, 1),
            Cell(1, 2),
            Cell(3, 2),
            Cell(2, 3),
        ]

    def test_neighbors_clip_bounds_and_obstacles(self):
        grid = GridMap(width=3, height=3, blocked=frozenset({Cell(1, 0)}))
        assert grid.neighbors(Cell(0, 0)) == [Cell(0, 1)]
        assert grid.neighbors(Cell(2, 2)) == [Cell(2, 1), Cell(1, 2)]

    def test_neighbors_of_a_cell_off_the_grid_is_an_error(self):
        with pytest.raises(ValueError, match="out of range"):
            OPEN_5x5.neighbors(Cell(5, 0))

    def test_free_cells_row_major(self):
        grid = GridMap(width=3, height=2, blocked=frozenset({Cell(1, 0)}))
        assert grid.free_cells() == [
            Cell(0, 0),
            Cell(2, 0),
            Cell(0, 1),
            Cell(1, 1),
            Cell(2, 1),
        ]


class TestRobotTask:
    def test_legs_without_waypoints(self):
        task = RobotTask(1, Cell(0, 0), Cell(2, 2))
        assert task.legs() == [(Cell(0, 0), Cell(2, 2))]

    def test_legs_with_waypoints(self):
        task = RobotTask(1, Cell(0, 0), Cell(4, 4), waypoints=(Cell(1, 1), Cell(2, 2)))
        assert task.legs() == [
            (Cell(0, 0), Cell(1, 1)),
            (Cell(1, 1), Cell(2, 2)),
            (Cell(2, 2), Cell(4, 4)),
        ]

    def test_coercion_to_cell(self):
        task = RobotTask(1, (0, 0), (1, 1), waypoints=((0, 1),))
        assert task.start == Cell(0, 0)
        assert isinstance(task.waypoints[0], Cell)

    # A cell that is no x,y pair is refused by name, wherever it sits.
    @pytest.mark.parametrize("bad", [(0, 0, 0), (0,), 7], ids=["3-tuple", "1-tuple", "not-iterable"])
    @pytest.mark.parametrize("where", ["start", "goal", "waypoint"])
    def test_refuses_a_cell_that_is_no_pair(self, where, bad):
        cells = {"start": (0, 0), "goal": (1, 1), "waypoint": (0, 1), where: bad}
        with pytest.raises(ValueError, match=rf"^cell {re.escape(repr(bad))} is not an x,y pair$"):
            RobotTask(1, cells["start"], cells["goal"], waypoints=(cells["waypoint"],))

    @pytest.mark.parametrize("bad", [(0, 0, 0), (0,), 7], ids=["3-tuple", "1-tuple", "not-iterable"])
    def test_grid_refuses_a_blocked_cell_that_is_no_pair(self, bad):
        with pytest.raises(ValueError, match=rf"^cell {re.escape(repr(bad))} is not an x,y pair$"):
            GridMap(width=3, height=3, blocked=frozenset({bad}))


class TestScenarioValidation:
    def test_duplicate_robot_id(self):
        tasks = (RobotTask(1, Cell(0, 0), Cell(1, 1)), RobotTask(1, Cell(2, 2), Cell(3, 3)))
        with pytest.raises(ValueError, match="duplicate"):
            Scenario("x", OPEN_5x5, tasks)

    def test_endpoint_on_blocked_cell(self):
        grid = GridMap(width=3, height=3, blocked=frozenset({Cell(1, 1)}))
        with pytest.raises(ValueError, match="blocked"):
            Scenario("x", grid, (RobotTask(1, Cell(1, 1), Cell(0, 0)),))

    def test_start_equals_goal_needs_waypoint(self):
        with pytest.raises(ValueError, match="start equals goal"):
            Scenario("x", OPEN_5x5, (RobotTask(1, Cell(0, 0), Cell(0, 0)),))
        # Out-and-back via a waypoint is a legitimate patrol task.
        Scenario("x", OPEN_5x5, (RobotTask(1, Cell(0, 0), Cell(0, 0), waypoints=(Cell(3, 3),)),))

    def test_tasks_are_held_in_robot_id_order(self):
        tasks = [RobotTask(rid, Cell(rid, 0), Cell(rid, 4)) for rid in (3, 1, 2)]
        scenario = Scenario("x", OPEN_5x5, tasks)
        assert [t.robot_id for t in scenario.tasks] == [1, 2, 3]
        assert scenario == Scenario("x", OPEN_5x5, sorted(tasks, key=lambda t: t.robot_id))
        text = render_scenario(scenario)
        assert [line.split()[1] for line in text.splitlines() if line.startswith("robot")] == ["1", "2", "3"]
        assert load_scenario(text, name="x") == scenario

    def test_task_for(self):
        task = RobotTask(7, Cell(0, 0), Cell(1, 1))
        scenario = Scenario("x", OPEN_5x5, (task,))
        assert scenario.task_for(7) is task
        with pytest.raises(KeyError):
            scenario.task_for(8)


VALID_TEXT = """\
# a tiny test world
map 4 3
....
.##.
....

robot 1 start 0,0 goal 3,2
robot 2 start 3,0 via 0,2 goal 3,2
"""


class TestScenarioParsing:
    def test_parses_grid_and_tasks(self):
        sc = load_scenario(VALID_TEXT, name="tiny")
        assert sc.name == "tiny"
        assert (sc.grid.width, sc.grid.height) == (4, 3)
        assert sc.grid.blocked == frozenset({Cell(1, 1), Cell(2, 1)})
        assert sc.tasks[0] == RobotTask(1, Cell(0, 0), Cell(3, 2))
        assert sc.tasks[1].waypoints == (Cell(0, 2),)

    def test_round_trip(self):
        sc = load_scenario(VALID_TEXT, name="tiny")
        again = load_scenario(render_scenario(sc), name="tiny")
        assert again == sc

    def test_builtin_round_trip(self):
        for name in BUILTIN_NAMES:
            sc = builtin_scenario(name)
            assert load_scenario(render_scenario(sc), name=name) == sc

    @pytest.mark.parametrize(
        "text,bad_line",
        [
            ("", 1),
            ("grid 4 3\n....\n", 1),
            ("map 4\n....\n", 1),
            ("map four 3\n....\n", 1),
            ("map 0 3\n", 1),
            ("map 4 3\n....\n.##.\n", 3),  # truncated map block
            ("map 4 3\n....\n.##\n....\n", 3),  # short row
            ("map 4 3\n....\n.xx.\n....\n", 3),  # invalid char
            ("map 2 1\n..\nrobot 1 start 0,0\n", 3),  # missing goal
            ("map 2 1\n..\nrobot x start 0,0 goal 1,0\n", 3),
            ("map 2 1\n..\nrobot 1 start 5,0 goal 1,0\n", 3),  # out of range
            ("map 2 1\n..\nrobot 1 start 0,0 goal 0,0\n", 3),
            ("map 2 1\n..\ndrone 1 start 0,0 goal 1,0\n", 3),
            ("map 3 1\n.#.\nrobot 1 start 1,0 goal 2,0\n", 3),  # blocked start
            ("map 2 1\n..\nrobot 1 start 0,0 goal 1,0\nrobot 1 start 1,0 goal 0,0\n", 4),
            ("map 3 1\n...\nrobot 1 start 0,0 via 1;0 goal 2,0\n", 3),  # bad cell token
            ("map 3 1\n...\nrobot 1 start 0,0 by 1,0 goal 2,0\n", 3),  # missing 'via'
            # Integers are read only as str(int) writes them; int() takes each of these.
            ("map 1_0 1\n..........\n", 1),
            ("map +2 1\n..\n", 1),
            ("map \u0662 1\n..\n", 1),
            ("map 2 1\n..\nrobot 1_0 start 0,0 goal 1,0\n", 3),
            ("map 2 1\n..\nrobot +1 start 0,0 goal 1,0\n", 3),
            ("map 2 1\n..\nrobot \u0661 start 0,0 goal 1,0\n", 3),
            ("map 2 1\n##\n", 2),  # no free cell: named at the last map row
        ],
    )
    def test_malformed_input_reports_line(self, text, bad_line):
        with pytest.raises(ScenarioError) as exc:
            load_scenario(text)
        assert exc.value.line == bad_line

    @pytest.mark.parametrize("line, token", [
        ("robot 1 start 1,2;3,4 goal 1,0", "1,2;3,4"),  # a via list where one cell belongs
        ("robot 1 start 0,0 goal 1", "1"),
        ("robot 1 start 0,0 goal 1,0,0", "1,0,0"),
        ("robot 1 start 0,0 goal 1.5,0", "1.5,0"),
        ("robot 1 start 0,0 via 1,0; goal 2,0", ""),  # an empty via item
    ])
    def test_bad_cell_token_is_named_with_its_line(self, line, token):
        with pytest.raises(ScenarioError) as exc:
            load_scenario(f"map 3 1\n...\n{line}\n")
        assert str(exc.value) == f"line 3: expected cell as <x>,<y>, got {token!r}"

    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0661"])
    def test_integers_not_written_by_str_keep_their_field_message(self, token):
        with pytest.raises(ScenarioError) as exc:
            load_scenario(f"map {token} 1\n..\n")
        assert str(exc.value) == f"line 1: malformed header: non-integer dimensions in 'map {token} 1'"
        with pytest.raises(ScenarioError) as exc:
            load_scenario(f"map 2 1\n..\nrobot {token} start 0,0 goal 1,0\n")
        assert str(exc.value) == "line 3: expected 'robot <id> start <x>,<y> [via ...] goal <x>,<y>'"

    @pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_lines_end_only_where_open_ends_them(self, char):
        # str.splitlines() would also cut at each of these; open() does not.
        head, robots = VALID_TEXT.split("\n\n")
        text = f"{head}\n# note{char} page two\n{robots}"
        assert load_scenario(text) == load_scenario(VALID_TEXT)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_line_ends(self, newline):
        assert load_scenario(VALID_TEXT.replace("\n", newline)) == load_scenario(VALID_TEXT)

    def test_map_row_keeps_a_separator_char(self):
        with pytest.raises(ScenarioError) as exc:
            load_scenario("map 3 1\n.\x1c.\n")
        assert str(exc.value) == "line 2: invalid map char '\\x1c' at column 1"

    def test_fields_are_separated_by_ascii_blanks(self):
        spaced = "map\t3 \v1\f\n...\nrobot 1 start 0,0\t goal 2,0 \n"
        assert load_scenario(spaced) == load_scenario("map 3 1\n...\nrobot 1 start 0,0 goal 2,0\n")

    @pytest.mark.parametrize("text, message", [
        ("map\x1c3 1\n...\nrobot 1\u3000start 0,0\x85goal 2,0\n",
         "line 1: malformed header: expected 'map <width> <height>', got 'map\\x1c3 1'"),
        ("\u3000map 3 1\n...\n", "line 1: malformed header: expected 'map <width> <height>', got '\\u3000map 3 1'"),
        ("map 3\x1f 1\n...\n", "line 1: malformed header: non-integer dimensions in 'map 3\\x1f 1'"),
        ("map 3 1\n...\nrobot 1\u3000start 0,0 goal 2,0\n",
         "line 3: expected 'robot <id> start <x>,<y> [via ...] goal <x>,<y>'"),
        ("map 3 1\n...\nrobot 1 start 0,0\x85goal 2,0\n",
         "line 3: expected 'robot <id> start <x>,<y> [via ...] goal <x>,<y>'"),
        ("map 3 1\n...\nrobot 1 start 0,0 goal 2,0\xa0\n", "line 3: expected cell as <x>,<y>, got '2,0\\xa0'"),
        ("map 3 1\n...\n\u2003\n", "line 3: expected 'robot' line, got '\\u2003'"),
    ])
    def test_other_blanks_keep_their_field_message(self, text, message):
        # str.split() and str.strip() would take each of these as a blank.
        with pytest.raises(ScenarioError) as exc:
            load_scenario(text)
        assert str(exc.value) == message

    def test_comments_and_blanks_skipped_outside_map(self):
        text = "\n# header comment\n\nmap 2 2\n..\n..\n\n# between\nrobot 1 start 0,0 goal 1,1\n"
        sc = load_scenario(text)
        assert len(sc.tasks) == 1

    def test_map_block_is_verbatim(self):
        # '#' inside the map block is an obstacle row, never a comment.
        text = "map 2 2\n##\n..\nrobot 1 start 0,1 goal 1,1\n"
        sc = load_scenario(text)
        assert sc.grid.blocked == frozenset({Cell(0, 0), Cell(1, 0)})


class TestCellText:
    def test_str_is_the_file_syntax_and_repr_is_unchanged(self):
        assert str(Cell(1, 0)) == f"{Cell(1, 0)}" == "1,0"
        assert repr(Cell(1, 0)) == "Cell(x=1, y=0)"

    @pytest.mark.parametrize("token", ["+0,0", "1_0,0", " 1,2", "1,2 ", "\u0661,2"])
    def test_only_ascii_integers_are_read(self, token):
        # int() would take each of these, e.g. 1_0 as 10; str(cell) writes none of them.
        with pytest.raises(ValueError) as exc:
            _parse_cell(token)
        assert str(exc.value) == f"expected cell as <x>,<y>, got {token!r}"

    def test_leading_zeros_and_minus_zero_keep_their_value(self):
        assert _parse_cell("007,-0") == Cell(7, 0)
        assert _parse_cell("-01,-10") == Cell(-1, -10)


class TestBuiltins:
    def test_unknown_name(self):
        for _ in range(2):  # a failed lookup is not cached
            with pytest.raises(ValueError, match="unknown"):
                builtin_scenario("depot")

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_each_builtin_is_parsed_once(self, name):
        assert builtin_scenario(name) is builtin_scenario(name)

    def test_warehouse_shape_and_tasks(self):
        sc = builtin_scenario("warehouse")
        assert (sc.grid.width, sc.grid.height) == (24, 21)
        assert len(sc.tasks) == 2
        assert sc.task_for(1).start == Cell(5, 4)
        assert sc.task_for(1).goal == Cell(21, 19)
        assert sc.task_for(2).start == Cell(2, 7)
        assert sc.task_for(2).goal == Cell(14, 19)
        # Single connected component: every free cell is mutually reachable.
        assert len(set(component_labels(sc.grid).values())) == 1

    def test_room_shape_and_tasks(self):
        sc = builtin_scenario("room")
        assert (sc.grid.width, sc.grid.height) == (28, 22)
        assert not sc.grid.is_free(Cell(14, 10))  # central table
        assert sc.task_for(1).waypoints == (Cell(12, 10),)
        assert sc.task_for(2).waypoints == (Cell(12, 11),)
        assert len(set(component_labels(sc.grid).values())) == 1


class TestComponents:
    def test_open_grid_single_component(self):
        labels = component_labels(OPEN_5x5)
        assert len(labels) == 25
        assert set(labels.values()) == {0}

    def test_wall_splits_components(self):
        labels = component_labels(SPLIT_5x5)
        assert labels[Cell(0, 0)] != labels[Cell(4, 0)]
        assert labels[Cell(0, 0)] == labels[Cell(1, 4)]
        assert len(set(labels.values())) == 2

    @pytest.mark.parametrize("pct", [10, 35, 50, 70])
    def test_labels_and_their_order_match_a_plain_flood(self, pct):
        # Label numbers and insertion order both feed the seeded endpoint draw.
        rng = random.Random(pct)
        grid = GridMap(30, 20, frozenset(
            (x, y) for y in range(20) for x in range(30) if rng.random() * 100 < pct))
        assert list(component_labels(grid).items()) == list(flood_labels(grid).items())


class TestRandomEndpoints:
    def test_deterministic(self):
        grid = builtin_scenario("warehouse").grid
        assert random_endpoints(grid, 3, 40) == random_endpoints(grid, 3, 40)
        assert random_endpoints(grid, 3, 40) != random_endpoints(grid, 4, 40)

    def test_prefix_stability(self):
        # Growing n extends the sequence without disturbing earlier pairs.
        grid = builtin_scenario("warehouse").grid
        assert random_endpoints(grid, 9, 100)[:20] == random_endpoints(grid, 9, 20)

    def test_pairs_valid(self):
        labels = component_labels(SPLIT_5x5)
        for start, goal in random_endpoints(SPLIT_5x5, 0, 200):
            assert start != goal
            assert SPLIT_5x5.is_free(start) and SPLIT_5x5.is_free(goal)
            assert labels[start] == labels[goal]

    def test_two_cell_grid_forces_the_unique_pair(self):
        corridor = GridMap(width=2, height=1, blocked=frozenset())
        for seed in range(10):
            ((start, goal),) = random_endpoints(corridor, seed, 1)
            assert {start, goal} == {Cell(0, 0), Cell(1, 0)}

    def test_warehouse_pairs_reachable_per_bfs(self):
        grid = builtin_scenario("warehouse").grid
        for start, goal in random_endpoints(grid, 42, 20):
            assert bfs_distance(grid, start, goal) is not None

    def test_gives_up_when_valid_pairs_are_rare(self, isolated_pair_grid):
        assert len(isolated_pair_grid.free_cells()) == 4490
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"^pair 0: .* in 1000 draws$"):
            random_endpoints(isolated_pair_grid, 0, 1)
        assert time.perf_counter() - t0 < 1.0

    def test_valid_for_many_seeds(self):
        labels = component_labels(SPLIT_5x5)
        for seed in range(100):
            ((start, goal),) = random_endpoints(SPLIT_5x5, seed, 1)
            assert start != goal
            assert labels[start] == labels[goal]

    def test_rejects_unusable_grids(self):
        with pytest.raises(ValueError):
            random_endpoints(OPEN_5x5, 0, 0)
        lonely = GridMap(width=1, height=1, blocked=frozenset())
        with pytest.raises(ValueError, match="reachable"):
            random_endpoints(lonely, 0, 1)
