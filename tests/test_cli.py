"""Command-line interface: exit codes, output shapes, file emission."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from perfplan import cli
from perfplan.cli import build_parser, main
from perfplan.gridworld import Cell, RobotTask, Scenario, builtin_scenario, render_scenario
from perfplan.harness import COLLISION_HEADER, SWEEP_HEADER


@pytest.fixture()
def failing_scenario_file(tmp_path):
    # (1,4)->(16,9) deterministically fails at modulo 17/20 on the warehouse
    # grid, giving the CLI a reproducible planning-failure input.
    grid = builtin_scenario("warehouse").grid
    scenario = Scenario("failcase", grid, (RobotTask(1, Cell(1, 4), Cell(16, 9)),))
    path = tmp_path / "failcase.scen"
    path.write_text(render_scenario(scenario))
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
        bad.write_text("map 2 2\n..\n.x\n")
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
                        "robot 2 start 0,2 goal 4,2\n")
        assert main(["simulate", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-3:] == ["..1..", "11+11", "22X22"]

    def test_trace_to_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["simulate", "warehouse", "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
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
        lines = out_file.read_text().splitlines()
        assert lines[0].split() == SWEEP_HEADER.split(",")
        assert len(lines) == 3

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
            f"robot {i + 1} start {i},0 via {i},0 goal {i},0\n" for i in range(3)))
        assert main(["collisions", str(path), "--trials", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trial 1: no collision-free task variation")

    def test_sweep_without_drawable_endpoints_is_one(self, isolated_pair_grid, tmp_path, capsys):
        path = tmp_path / "sparse.scen"
        path.write_text(render_scenario(Scenario("sparse", isolated_pair_grid, ())))
        assert main(["sweep", str(path), "--cases", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pair 0: ") and err.endswith(" in 1000 draws\n")


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
                        "robot 2 start 4,0 goal 3,0\n")
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
    return results, _without_wall_column(sweep_file.read_text())


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


def _readme_usage_lines():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Command-line usage", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("perfplan ")]


def test_readme_usage_lines_cover_every_command():
    assert [line.split()[1] for line in _readme_usage_lines()] == [
        "plan", "simulate", "sweep", "collisions", "assign"]


@pytest.mark.parametrize("line", _readme_usage_lines())
def test_readme_usage_line_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # some lines write their report to a file
    assert main(shlex.split(line)[1:]) == 0
