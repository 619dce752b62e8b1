"""Command-line interface: exit codes, output shapes, file emission."""

import importlib
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfplan import cli
from perfplan.cli import build_parser, main
from perfplan.gridworld import Cell, RobotTask, Scenario, builtin_scenario, render_scenario
from perfplan.harness import COLLISION_HEADER, DEFAULT_RATE_LADDER, SWEEP_HEADER, parse_sweep_csv


@pytest.fixture()
def failing_scenario_file(tmp_path):
    # (1,4)->(16,9) deterministically fails at modulo 17/20 on the warehouse
    # grid, giving the CLI a reproducible planning-failure input.
    grid = builtin_scenario("warehouse").grid
    scenario = Scenario("failcase", grid, (RobotTask(1, Cell(1, 4), Cell(16, 9)),))
    path = tmp_path / "failcase.scen"
    path.write_text(render_scenario(scenario), encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_plan_success_is_zero(self, capsys):
        assert main(["plan", "warehouse", "--robot", "1"]) == 0
        out = capsys.readouterr().out
        assert "robot 1: 31 edges" in out
        assert "path: (5,4)" in out

    def test_planning_failure_is_two(self, failing_scenario_file, capsys):
        code = main(["plan", failing_scenario_file, "--robot", "1",
                     "--rate", "17/20", "--mode", "modulo"])
        assert code == 2
        assert "no path" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["modulo", "trunc", "random"])
    def test_every_mode_plans_at_a_vanishing_rate(self, mode, capsys):
        # Rate 1e-30 is window 10**30, above sys.maxsize in modulo mode.
        assert main(["plan", "warehouse", "--robot", "1", "--rate", "1e-30", "--mode", mode]) == 0
        assert "robot 1: 31 edges" in capsys.readouterr().out

    def test_usage_error_is_one(self, capsys):
        assert main([]) == 1
        assert main(["plan", "warehouse"]) == 1  # --robot is required
        assert main(["plan", "warehouse", "--robot", "1", "--mode", "warp"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_rate_is_one(self, capsys):
        assert main(["plan", "warehouse", "--robot", "1", "--rate", "2"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "collisions"])
    def test_empty_rate_list_is_one(self, command, capsys):
        # An empty --rates is an error, not a request for the default rates.
        assert main([command, "warehouse", "--rates", ""]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "empty rate list" in err

    def test_unknown_scenario_is_one(self, capsys):
        assert main(["plan", "depot", "--robot", "1"]) == 1
        assert "neither a built-in" in capsys.readouterr().err

    def test_unknown_robot_is_one(self, capsys):
        assert main(["plan", "warehouse", "--robot", "9"]) == 1
        assert "no robot 9" in capsys.readouterr().err

    def test_malformed_scenario_file_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.scen"
        bad.write_text("map 2 2\n..\n.x\n", encoding="utf-8")
        assert main(["plan", str(bad), "--robot", "1"]) == 1
        assert "line 3" in capsys.readouterr().err


class TestPlanOutput:
    def test_render_marks_endpoints(self, capsys):
        main(["plan", "warehouse", "--robot", "1"])
        grid_lines = capsys.readouterr().out.splitlines()[2:]
        text = "\n".join(grid_lines)
        assert text.count("S") == 1 and text.count("G") == 1
        assert "*" in text

    def test_waypoint_marked(self, capsys):
        main(["plan", "room", "--robot", "1"])
        out = capsys.readouterr().out
        assert "robot 1: 47 edges" in out
        assert "V" in out


class TestSimulateOutput:
    def test_reports_all_robots_and_makespan(self, capsys):
        assert main(["simulate", "warehouse"]) == 0
        out = capsys.readouterr().out
        assert "robot 1: 31 edges" in out
        assert "robot 2: 24 edges" in out
        assert "makespan: 31" in out
        assert "collisions: none" in out

    def test_reports_a_failed_robot(self, tmp_path, capsys):
        # Robot 1's query dead-ends at modulo 17/20 (as in the failing
        # scenario above); robot 2 plans, so the makespan is its path length.
        grid = builtin_scenario("warehouse").grid
        tasks = (RobotTask(1, Cell(1, 4), Cell(16, 9)), RobotTask(2, Cell(2, 7), Cell(14, 19)))
        path = tmp_path / "onefails.scen"
        path.write_text(render_scenario(Scenario("onefails", grid, tasks)), encoding="utf-8")
        assert main(["simulate", str(path), "--rate", "17/20"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert "robot 1: planning failed (leg 0)" in lines
        (robot2,) = [line for line in lines if line.startswith("robot 2: ")]
        assert f"makespan: {robot2.split()[2]}" in lines

    def test_comment_with_a_form_feed_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "ff.scen"
        path.write_bytes(b"map 3 1\n...\n# note\f page two\nrobot 1 start 0,0 goal 2,0\n")
        assert main(["simulate", str(path)]) == 0
        assert "robot 1: 2 edges" in capsys.readouterr().out

    def test_scenario_file_is_read_as_utf8_in_any_locale(self, tmp_path):
        path = tmp_path / "utf8.scen"
        path.write_bytes("map 3 1\n...\n# caf\u00e9\nrobot 1 start 0,0 goal 2,0\n".encode("utf-8"))
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "perfplan.cli", "simulate", str(path)],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert b"robot 1: 2 edges" in proc.stdout

    @pytest.mark.parametrize("argv, written", [
        (["simulate", "warehouse", "--trace", "t.csv"], "t.csv"),
        (["sweep", "room", "--cases", "1", "--out", "o.csv"], "o.csv"),
    ])
    def test_report_files_are_written_as_utf8(self, tmp_path, argv, written):
        # A write in the locale's default encoding warns under
        # warn_default_encoding; the warning filter makes that an error.
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                               "-m", "perfplan.cli", *argv], capture_output=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / written).read_text(encoding="utf-8").startswith(("t,robot_id,x,y\n", "rate,"))

    def test_trace_to_stdout(self, capsys):
        assert main(["simulate", "warehouse", "--trace", "-"]) == 0
        out = capsys.readouterr().out
        assert "t,robot_id,x,y" in out
        assert "0,1,5,4" in out  # robot 1 starts at (5,4)
        assert "0,2,2,7" in out

    def test_overlap_of_robots_sharing_a_last_digit(self, tmp_path, capsys):
        # Robots 1 and 11 are both drawn as "1"; where their paths cross
        # the map must still show the overlap.
        path = tmp_path / "digits.scen"
        path.write_text("map 5 3\n.....\n.....\n.....\n"
                        "robot 1 start 0,1 goal 4,1\n"
                        "robot 11 start 2,0 goal 2,2\n"
                        "robot 2 start 0,2 goal 4,2\n", encoding="utf-8")
        assert main(["simulate", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-3:] == ["..1..", "11+11", "22X22"]

    def test_trace_to_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["simulate", "warehouse", "--trace", str(trace)]) == 0
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,robot_id,x,y"
        # one row per robot per tick, plus the header
        assert len(lines) == 1 + 2 * 32

    def test_failed_trace_write_prints_nothing(self, tmp_path, capsys):
        trace = tmp_path / "missing" / "x.csv"
        assert main(["simulate", "warehouse", "--trace", str(trace)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "No such file or directory" in err


class TestReportCommands:
    def test_sweep_to_stdout(self, capsys):
        code = main(["sweep", "warehouse", "--rates", "0", "--cases", "3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == SWEEP_HEADER
        assert lines[1].startswith("0,0.0,")

    def test_sweep_to_file_as_table(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.txt"
        code = main(["sweep", "warehouse", "--rates", "0,1/2", "--cases", "3",
                     "--format", "table", "--out", str(out_file)])
        assert code == 0
        assert capsys.readouterr().out == ""
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert lines[0].split() == SWEEP_HEADER.split(",")
        assert len(lines) == 3

    # An empty file name is refused before any work, not taken for "no
    # file": no report on stdout and no file written.
    @pytest.mark.parametrize("argv", [
        ["simulate", "warehouse", "--trace", ""],
        ["sweep", "room", "--out", ""],
        ["collisions", "room", "--out="],
    ])
    def test_empty_file_name_is_a_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        flag = argv[2].rstrip("=")
        assert err == f"usage error: argument {flag}: empty file name\n"
        assert list(tmp_path.iterdir()) == []

    def test_collisions_csv(self, capsys):
        code = main(["collisions", "warehouse", "--rates", "0", "--trials", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == COLLISION_HEADER
        assert lines[1] == "0,2,0.0,1.0"

    def test_collisions_without_valid_variation_is_one(self, tmp_path, capsys):
        # Three parked robots fill a 3-cell corridor: every re-drawn trial
        # either has no free start/goal left or collides head-on, so the
        # study must give up with a clear error instead of retrying forever.
        path = tmp_path / "corridor.scen"
        path.write_text("map 3 1\n...\n" + "".join(
            f"robot {i + 1} start {i},0 via {i},0 goal {i},0\n" for i in range(3)), encoding="utf-8")
        assert main(["collisions", str(path), "--trials", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trial 1: no collision-free task variation")

    def test_collisions_names_the_robot_whose_draw_ran_dry(self, tmp_path, capsys):
        # On the same corridor, trial 1's first five variations collide. In
        # the sixth, robots 1 and 2 take two cells as starts and two as
        # goals, and the one start left for robot 3 is the one goal left,
        # so its draw runs dry.
        path = tmp_path / "corridor.scen"
        path.write_text("map 3 1\n...\n" + "".join(
            f"robot {i + 1} start {i},0 via {i},0 goal {i},0\n" for i in range(3)), encoding="utf-8")
        assert main(["collisions", str(path), "--trials", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: trial 1: no collision-free task variation: robot 3 drew no"
                                " start/goal pair in 1000 draws, after 5 variations\n")

    def test_collisions_on_scenario_whose_exact_plans_fail_is_one(self, tmp_path, capsys):
        # A wall splits the map and robot 1's goal lies beyond it.
        path = tmp_path / "split.scen"
        path.write_text("map 5 3\n..#..\n..#..\n..#..\n"
                        "robot 1 start 0,0 goal 4,0\nrobot 2 start 0,2 goal 1,2\n", encoding="utf-8")
        assert main(["collisions", str(path), "--trials", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: scenario's own exact plans fail; robots without a path: 1\n"

    def test_sweep_with_rare_endpoints_draws_them(self, isolated_pair_grid, tmp_path, capsys):
        # The grid's one reachable pair is rarer than 1 in 1000 random draws.
        path = tmp_path / "sparse.scen"
        path.write_text(render_scenario(Scenario("sparse", isolated_pair_grid, ())), encoding="utf-8")
        t0 = time.perf_counter()
        assert main(["sweep", str(path), "--cases", "2"]) == 0
        assert time.perf_counter() - t0 < 1.0
        rows = parse_sweep_csv(capsys.readouterr().out)
        assert [(r.pct_failed, r.e_p) for r in rows] == [(0.0, 0.0)] * len(DEFAULT_RATE_LADDER)


class TestAssign:
    def test_happy_path(self, capsys):
        code = main(["assign", "warehouse", "--tasks", "21,19;14,19"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "robot_id,task_index,cost"
        assert lines[1] == "1,0,31"
        assert lines[2] == "2,1,24"

    def test_task_count_mismatch(self, capsys):
        assert main(["assign", "warehouse", "--tasks", "21,19"]) == 1
        assert "2 robots but 1 tasks" in capsys.readouterr().err

    def test_unreachable_task_is_one(self, tmp_path, capsys):
        # A wall splits the map; robot 2 is left with the task beyond it.
        path = tmp_path / "split.scen"
        path.write_text("map 5 3\n..#..\n..#..\n..#..\n"
                        "robot 1 start 0,0 goal 1,0\n"
                        "robot 2 start 4,0 goal 3,0\n", encoding="utf-8")
        assert main(["assign", str(path), "--tasks", "0,2;1,2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: robot 2 cannot reach task 1 at 1,2\n"

    def test_bad_task_token(self, capsys):
        assert main(["assign", "warehouse", "--tasks", "21;14,19"]) == 1
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("tasks, token", [("1,2;3", "3"), ("a,b;1,1", "a,b"), ("1,2;", ""),
                                              ("1,2; 3,4", " 3,4")])
    def test_bad_task_item_is_named(self, capsys, tasks, token):
        # An empty item is a bad cell, as in a scenario file's via list, and
        # so is an item padded with blanks.
        assert main(["assign", "room", "--tasks", tasks]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot parse --tasks: expected cell as <x>,<y>, got {token!r}\n"

    def test_blocked_task_cell_is_written_as_typed(self, capsys):
        assert main(["assign", "room", "--tasks", "14,10;27,0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: cell 14,10 is blocked or out of range\n"


def _without_wall_column(csv_text):
    # mean_speedup_wall (third column) is the only clock-dependent sweep field.
    return [[f for n, f in enumerate(line.split(",")) if n != 2] for line in csv_text.splitlines()]


def _run_sequence(tmp_path, capsys):
    """One in-process run of every kind of outcome: (code, stdout, stderr) per call."""
    sweep_file = tmp_path / "sweep.csv"
    results = []
    for argv in (["plan"],
                 ["plan", str(tmp_path / "missing.scen"), "--robot", "1"],
                 ["plan", "warehouse", "--robot", "1", "--rate", "22/25"],
                 ["sweep", "room", "--cases", "3", "--out", str(sweep_file)],
                 ["assign", "warehouse", "--tasks", "21,19;14,19"]):
        code = main(argv)
        results.append((argv[0], code, *capsys.readouterr()))
    return results, _without_wall_column(sweep_file.read_text(encoding="utf-8"))


class TestParserReuse:
    def test_reused_parser_matches_a_fresh_one(self, tmp_path, monkeypatch, capsys):
        assert cli._parser() is cli._parser()
        reused = _run_sequence(tmp_path, capsys)
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = _run_sequence(tmp_path, capsys)
        assert reused == fresh
        codes = [code for _, code, _, _ in reused[0]]
        assert codes[:2] == [1, 1] and codes[2] in (0, 2) and codes[3:] == [0, 0]

    def test_build_parser_returns_a_new_parser_each_call(self):
        assert build_parser() is not build_parser()

    def test_fresh_process_prints_what_main_prints(self, capsys):
        argv = ["plan", "warehouse", "--robot", "1"]
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "perfplan.cli", *argv],
                              capture_output=True, env=env, check=True)
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out.encode()


def _readme_section(heading):
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _readme_usage_lines():
    section = _readme_section("Command-line usage")
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("perfplan ")]


def test_readme_usage_lines_cover_every_command():
    assert [line.split()[1] for line in _readme_usage_lines()] == [
        "plan", "simulate", "sweep", "collisions", "assign"]


@pytest.mark.parametrize("line", _readme_usage_lines())
def test_readme_usage_line_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # some lines write their report to a file
    assert main(shlex.split(line)[1:]) == 0


def test_readme_rule_homes_name_existing_symbols():
    # Every `module.name` the "One home per rule" table gives as a rule's
    # home must exist, so a deletion that leaves its row behind fails here.
    modules = "gridworld|planner|executor|harness|metrics|assignment|cli"
    homes = set(re.findall(rf"`({modules})\.(\w+(?:\.\w+)*)`", _readme_section("One home per rule")))
    assert homes
    missing = []
    for module, dotted in sorted(homes):
        obj = importlib.import_module(f"perfplan.{module}")
        try:
            for name in dotted.split("."):
                obj = getattr(obj, name)
        except AttributeError:
            missing.append(f"{module}.{dotted}")
    assert missing == []


# Whole reports, pinned byte for byte: the first four before the walk, the
# every-tick detector and the padded cost-matrix wavefront existed. CI runs
# the installed console script on a few commands only, since an editable
# install runs these same sources.
DEADEND_SCEN = """\
map 6 4
....#.
....#.
......
......
robot 1 start 0,1 goal 5,1
"""

CROWD_SCEN = """\
map 10 3
..........
..........
..........
robot 1 start 0,1 goal 9,1
robot 2 start 9,1 goal 0,1
robot 3 start 1,1 goal 8,1
robot 4 start 8,1 goal 1,1
robot 5 start 4,0 goal 4,2
robot 6 start 5,2 goal 5,0
robot 7 start 2,0 goal 7,2
robot 8 start 7,0 goal 2,2
"""

CORRIDOR_SCEN = """\
map 7 1
.......
robot 1 start 0,0 goal 6,0
robot 2 start 3,0 goal 0,0
robot 3 start 6,0 goal 3,0
"""


class TestGoldenOutputs:
    def _run(self, argv, capsys):
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_warehouse_study(self, capsys):
        # Most of these robots' legs are walked to their stop, with no open
        # list, at rate 0 and at two perforated rates.
        assert self._run(["collisions", "warehouse", "--trials", "20", "--rates", "0,3/4,22/25"], capsys) == (
            "rate,n_trials,pct_collision_trials,mean_speedup_proxy\n"
            "0,20,0.0,1.0\n"
            "3/4,20,0.0,2.025235030938151\n"
            "22/25,20,5.0,2.1970874767629067\n")

    @pytest.mark.parametrize("rate,want", [
        ("0", """\
robot 1: 7 edges, 9 expansions, 0 skipped
path: (0,1) (1,1) (2,1) (3,1) (3,2) (4,2) (5,2) (5,1)
....#.
S***#G
...***
......
"""),
        ("3/4", """\
robot 1: 7 edges, 5 expansions, 10 skipped
path: (0,1) (0,2) (1,2) (2,2) (3,2) (4,2) (5,2) (5,1)
....#.
S...#G
******
......
"""),
    ])
    def test_dead_end_plan(self, rate, want, tmp_path, capsys):
        # The walk stops at 3,1: 4,1, the cell before the goal, is blocked,
        # so the plan drops the walk and searches from the start.
        path = tmp_path / "deadend.scen"
        path.write_text(DEADEND_SCEN, encoding="utf-8")
        assert self._run(["plan", str(path), "--robot", "1", "--rate", rate], capsys) == want

    def test_crowd_simulation(self, tmp_path, capsys):
        # Eight robots cross one corridor: the every-tick detector's
        # followers, swaps and shared cells, event for event.
        path = tmp_path / "crowd.scen"
        path.write_text(CROWD_SCEN, encoding="utf-8")
        assert self._run(["simulate", str(path)], capsys) == """\
robot 1: 9 edges, 10 expansions, 0 skipped
robot 2: 9 edges, 10 expansions, 0 skipped
robot 3: 7 edges, 8 expansions, 0 skipped
robot 4: 7 edges, 8 expansions, 0 skipped
robot 5: 2 edges, 3 expansions, 0 skipped
robot 6: 2 edges, 3 expansions, 0 skipped
robot 7: 7 edges, 8 expansions, 0 skipped
robot 8: 7 edges, 8 expansions, 0 skipped
makespan: 9
collisions (t,kind,robot_a,robot_b,cells):
2,vertex,6,8,5:0
3,vertex,6,7,5:0
3,edge,7,8,4:0|5:0
4,vertex,1,4,4:1
4,vertex,2,3,5:1
4,edge,3,4,4:1|5:1
5,edge,1,2,4:1|5:1
6,vertex,3,7,7:1
6,vertex,4,8,2:1
8,vertex,1,3,8:1
8,vertex,2,4,1:1
..++XX++..
+XX+XX+XX+
..8.56.7..
"""

    def test_corridor_assignment(self, tmp_path, capsys):
        # A one-row map pads to three rows, so the cost-matrix wavefront
        # has no interior row above or below a robot.
        path = tmp_path / "corridor.scen"
        path.write_text(CORRIDOR_SCEN, encoding="utf-8")
        assert self._run(["assign", str(path), "--tasks", "5,0;1,0;3,0"], capsys) == (
            "robot_id,task_index,cost\n1,1,1\n2,2,0\n3,0,1\n")

    def test_warehouse_simulation_at_three_quarters(self, capsys):
        # Both robots' legs are walked, perforated at 3/4, and replayed on
        # the pair-scan detector.
        assert self._run(["simulate", "warehouse", "--rate", "3/4"], capsys) == """\
robot 1: 31 edges, 9 expansions, 23 skipped
robot 2: 24 edges, 7 expansions, 18 skipped
makespan: 31
collisions: none
........................
........................
........................
...##..##..##..##..##...
...##11##..##..##..##...
...##.1##..##..##..##...
...##.1##..##..##..##...
..2##.1##..##..##..##...
..2##.1##..##..##..##...
..2##.1111111111111111..
..2##................1..
..2##..##..##..##..##1..
..2##..##..##..##..##1..
..2##..##..##..##..##1..
..2##..##..##..##..##1..
..2##..##..##..##..##1..
..2##..##..##..##..##1..
..2222222222222......1..
..............2......1..
..............2......1..
........................
"""

    def test_room_study(self, capsys):
        # The default study rates, as CSV and as a table.
        assert self._run(["collisions", "room", "--trials", "3"], capsys) == (
            "rate,n_trials,pct_collision_trials,mean_speedup_proxy\n"
            "3/5,3,0.0,1.6654092071611253\n"
            "3/4,3,0.0,2.085361171318618\n"
            "4/5,3,0.0,2.249281045751634\n")
        assert self._run(["collisions", "room", "--trials", "3", "--format", "table"], capsys) == (
            "rate  n_trials  pct_collision_trials  mean_speedup_proxy\n"
            "3/5   3         0.0                   1.6654092071611253\n"
            "3/4   3         0.0                   2.085361171318618\n"
            "4/5   3         0.0                   2.249281045751634\n")

    def test_room_sweep_but_its_wall_column(self, capsys):
        # mean_speedup_wall, the third column, is timed on the wall clock.
        text = self._run(["sweep", "room", "--cases", "2", "--rates", "22/25"], capsys)
        header, row = text.splitlines()
        assert header == SWEEP_HEADER
        assert row == f"22/25,0.88,{row.split(',')[2]},2.16,0.0,0.0,0.0,0.0"

    @pytest.mark.parametrize("argv,want", [
        (["--robot", "1", "--rate", "22/25"], (
            "robot 1: 47 edges, 8 expansions, 41 skipped\n"
            "path: (0,0) (1,0) (2,0) (3,0) (4,0) (5,0) (6,0) (7,0) (8,0) (9,0) "
            "(10,0) (11,0) (12,0) (12,1) (12,2) (12,3) (12,4) (12,5) (12,6) (12,7) (12,8) "
            "(12,9) (12,10) (12,9) (12,8) (12,7) (12,6) (12,5) (12,4) (12,3) (12,2) (12,1) "
            "(12,0) (13,0) (14,0) (15,0) (16,0) (17,0) (18,0) (19,0) (20,0) (21,0) (22,0) "
            "(23,0) (24,0) (25,0) (26,0) (27,0)\n"
            "S**************************G\n"
            "............*...............\n"
            "............*...............\n"
            "............*...............\n"
            "............*...............\n"
            "............*...............\n"
            "............*...............\n"
            "............*...............\n"
            "............*...............\n"
            "............*####...........\n"
            "............V####...........\n"
            ".............####...........\n"
            ".............####...........\n"
            "............................\n"
            "............................\n"
            "............................\n"
            "............................\n"
            "............................\n"
            "............................\n"
            "............................\n"
            "............................\n"
            "............................\n")),
        (["--robot", "2", "--rate", "22/25", "--mode", "random", "--seed", "3"], (
            "robot 2: 47 edges, 6 expansions, 43 skipped\n"
            "path: (0,21) (0,20) (0,19) (0,18) (0,17) (0,16) (0,15) (0,14) (0,13) (0,12) "
            "(0,11) (1,11) (2,11) (3,11) (4,11) (5,11) (6,11) (7,11) (8,11) (9,11) (10,11) "
            "(11,11) (12,11) (12,12) (12,13) (13,13) (14,13) (15,13) (16,13) (17,13) (18,13) (19,13) "
            "(20,13) (21,13) (22,13) (23,13) (24,13) (25,13) (26,13) (27,13) (27,14) (27,15) (27,16) "
            "(27,17) (27,18) (27,19) (27,20) (27,21)\n"
            "............................\n"
            "............................\n"
            "............................\n"
            "............................\n"
            "............................\n"
            "............................\n"
            "............................\n"
            "............................\n"
            "............................\n"
            ".............####...........\n"
            ".............####...........\n"
            "************V####...........\n"
            "*...........*####...........\n"
            "*...........****************\n"
            "*..........................*\n"
            "*..........................*\n"
            "*..........................*\n"
            "*..........................*\n"
            "*..........................*\n"
            "*..........................*\n"
            "*..........................*\n"
            "S..........................G\n")),
    ])
    def test_room_plan_at_the_top_rate(self, argv, want, capsys):
        # Multi-leg plans at the top ladder rate: most iterations are
        # perforated steps that move onto their cell themselves.
        assert self._run(["plan", "room", *argv], capsys) == want
