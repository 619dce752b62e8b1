"""Rate parsing, benchmark sweep, collision study, and report round-trips."""

import dataclasses
import random
from fractions import Fraction

import pytest

from oracles import reference_collision_study
import perfplan.executor as executor_module
import perfplan.harness as harness_module
from perfplan.gridworld import Cell, GridMap, RobotTask, Scenario, builtin_scenario, random_endpoints
from perfplan.harness import (
    COLLISION_HEADER,
    DEFAULT_RATE_LADDER,
    DEFAULT_SEED,
    DEFAULT_STUDY_RATES,
    DEFAULT_TRIALS,
    SWEEP_HEADER,
    CollisionRow,
    SweepRow,
    collision_study,
    emit_reports,
    parse_collision_csv,
    parse_rate,
    parse_rate_list,
    parse_sweep_csv,
    sweep,
)
from perfplan.planner import FOUND, NOT_FOUND, PerforationSpec, PlanOutcome, manhattan, plan_multi_leg

WAREHOUSE = builtin_scenario("warehouse")


class TestParseRate:
    def test_fraction_tokens(self):
        assert parse_rate("1/5") == Fraction(1, 5)
        assert parse_rate(" 3/4 ") == parse_rate("\t3/4\n") == Fraction(3, 4)
        assert parse_rate("0") == 0

    def test_exact_decimals(self):
        assert parse_rate("0.125") == Fraction(1, 8)
        assert parse_rate("0.5") == Fraction(1, 2)

    def test_ladder_shorthands(self):
        # two-decimal shorthands snap to the ladder's exact rationals
        assert parse_rate("0.33") == Fraction(1, 3)
        assert parse_rate("0.83") == Fraction(5, 6)
        assert parse_rate("0.85") == Fraction(17, 20)
        assert parse_rate("0.88") == Fraction(22, 25)

    @pytest.mark.parametrize("bad", ["1", "1.0", "-0.1", "-1/5", "x", "1/0", "", "1_0/20", "\u0663/\u0664"])
    def test_rejects_out_of_range_and_junk(self, bad):
        with pytest.raises(ValueError):
            parse_rate(bad)

    @pytest.mark.parametrize("bad", ["\u3000", "\u30003/4 ", "\x1c3/4", "3/4\x1f", "3/4\x85", "\xa03/4"])
    def test_only_ascii_blanks_are_stripped(self, bad):
        # str.strip() and Fraction would take each of these as a blank.
        with pytest.raises(ValueError) as exc:
            parse_rate(bad)
        assert str(exc.value) == f"cannot parse perforation rate {bad!r}"
        with pytest.raises(ValueError) as exc:
            parse_rate_list(f"1/2,{bad}")
        assert str(exc.value) == f"cannot parse perforation rate {bad!r}"

    def test_rate_list(self):
        assert parse_rate_list("0, 1/5 ,3/4") == (0, Fraction(1, 5), Fraction(3, 4))
        with pytest.raises(ValueError):
            parse_rate_list(" , ")


class TestSweep:
    def test_rate_zero_row_is_lossless(self):
        rows = sweep(WAREHOUSE.grid, rates=[Fraction(0)], n_cases=5, measure_wall=False)
        (row,) = rows
        assert row.rate == 0
        assert row.mean_speedup_proxy == 1.0
        assert row.pct_len_increase == 0.0
        assert row.pct_failed == 0.0
        assert row.e_p == 0.0
        assert row.max_increase_pct == 0.0
        assert row.mean_speedup_wall == 0.0  # wall measurement disabled

    def test_default_ladder(self):
        rows = sweep(WAREHOUSE.grid, n_cases=2, measure_wall=False)
        assert tuple(r.rate for r in rows) == DEFAULT_RATE_LADDER

    def test_deterministic_without_wall_clock(self):
        kw = dict(rates=[Fraction(1, 5), Fraction(3, 4)], n_cases=8, measure_wall=False)
        assert sweep(WAREHOUSE.grid, **kw) == sweep(WAREHOUSE.grid, **kw)

    def test_mean_is_the_same_on_every_interpreter(self):
        # Pinned to the last digit: a plain float sum gives ...687 before
        # CPython 3.12 and ...69 after it; fmean gives ...69 on all of them.
        row, = sweep(WAREHOUSE.grid, rates=[Fraction(1, 5)], n_cases=20, seed=9, measure_wall=False)
        assert row.mean_speedup_proxy == 1.139454404818469

    def test_low_rates_are_harmless_at_default_seed(self):
        # Frozen-seed regression pin: the first three ladder rates cause no
        # failures and no detours on the default 20-case warehouse set.
        rates = [Fraction(1, 5), Fraction(1, 4), Fraction(1, 3)]
        for row in sweep(WAREHOUSE.grid, rates=rates, n_cases=20, seed=DEFAULT_SEED,
                         measure_wall=False):
            assert row.pct_failed == 0.0
            assert row.pct_len_increase == 0.0
            assert row.e_p == 0.0

    def test_aggressive_rate_saves_work(self):
        (row,) = sweep(WAREHOUSE.grid, rates=[Fraction(3, 4)], n_cases=20,
                       measure_wall=False)
        assert row.mean_speedup_proxy > 1.0

    def test_proxy_grows_with_rate(self):
        low, high = sweep(WAREHOUSE.grid, rates=[Fraction(1, 5), Fraction(3, 4)],
                          n_cases=20, measure_wall=False)
        assert high.mean_speedup_proxy > low.mean_speedup_proxy

    def test_rejects_bad_case_count(self):
        with pytest.raises(ValueError):
            sweep(WAREHOUSE.grid, n_cases=0)

    @pytest.mark.parametrize("measure_wall,reps", [(True, 5), (False, 1)])
    def test_searches_per_case(self, monkeypatch, measure_wall, reps):
        # One timed repetition doubles as the counted run.
        calls = {"exact": 0, "perforated": 0}

        def counting(kind, search):
            def run(*args, **kwargs):
                calls[kind] += 1
                return search(*args, **kwargs)
            return run

        monkeypatch.setattr(harness_module, "astar_exact",
                            counting("exact", harness_module.astar_exact))
        monkeypatch.setattr(harness_module, "astar_perforated",
                            counting("perforated", harness_module.astar_perforated))
        rates = [Fraction(1, 5), Fraction(3, 4)]
        rows = sweep(WAREHOUSE.grid, rates=rates, n_cases=3, measure_wall=measure_wall)
        assert calls == {"exact": 3 * reps, "perforated": 3 * len(rates) * reps}
        assert all((row.mean_speedup_wall > 0) == measure_wall for row in rows)

    def test_wall_timing_leaves_other_columns_unchanged(self):
        kw = dict(rates=[Fraction(1, 2), Fraction(22, 25)], n_cases=4)
        timed = sweep(WAREHOUSE.grid, measure_wall=True, **kw)
        counted = sweep(WAREHOUSE.grid, measure_wall=False, **kw)
        assert [dataclasses.replace(r, mean_speedup_wall=0.0) for r in timed] == counted

    def test_row_where_every_case_fails(self):
        # The one warehouse pair drawn at seed 38 dead-ends at 99/100, so the
        # row has no found path to take an error mean over.
        rows = sweep(WAREHOUSE.grid, rates=[Fraction(99, 100)], n_cases=1, seed=38,
                     measure_wall=False)
        (row,) = rows
        assert row.pct_failed == 100.0
        assert row.e_p == row.pct_len_increase == row.max_increase_pct == 0.0
        assert parse_sweep_csv(emit_reports(rows)) == rows

    def test_rate_decimal_property(self):
        rows = sweep(WAREHOUSE.grid, rates=[Fraction(1, 2)], n_cases=2, measure_wall=False)
        assert rows[0].rate_decimal == 0.5


@pytest.fixture
def replays(monkeypatch):
    """Every report the collision study's `replay` calls return, in order."""
    reports = []
    real_replay = harness_module.replay

    def replay(scenario, outcomes):
        reports.append(real_replay(scenario, outcomes))
        return reports[-1]

    monkeypatch.setattr(harness_module, "replay", replay)
    return reports


class TestCollisionStudy:
    def test_rate_zero_never_collides(self):
        rows = collision_study(WAREHOUSE, rates=[Fraction(0)], n_trials=6)
        (row,) = rows
        assert row.pct_collision_trials == 0.0
        assert row.mean_speedup_proxy == 1.0
        assert row.n_trials == 6

    def test_default_rates(self):
        rows = collision_study(WAREHOUSE, n_trials=2)
        assert tuple(r.rate for r in rows) == DEFAULT_STUDY_RATES

    def test_deterministic(self):
        kw = dict(rates=[Fraction(3, 4)], n_trials=6, seed=DEFAULT_SEED)
        assert collision_study(WAREHOUSE, **kw) == collision_study(WAREHOUSE, **kw)

    def test_mean_is_the_same_on_every_interpreter(self):
        # As for the sweep: a plain float sum gives ...6906 before CPython 3.12.
        row, = collision_study(WAREHOUSE, rates=[Fraction(3, 4)], n_trials=100, seed=9)
        assert row.mean_speedup_proxy == 2.025935297283692

    def test_three_quarters_rate_produces_collisions_somewhere(self):
        # Individually clean perforated paths do interfere in at least one of
        # 100 seeded warehouse task variations.
        (row,) = collision_study(WAREHOUSE, rates=[Fraction(3, 4)], n_trials=100,
                                 seed=DEFAULT_SEED)
        assert row.pct_collision_trials > 0

    def test_needs_two_robots(self):
        grid = GridMap(width=4, height=1, blocked=frozenset())
        solo = Scenario("solo", grid, (RobotTask(1, Cell(0, 0), Cell(3, 0)),))
        with pytest.raises(ValueError, match="two robots"):
            collision_study(solo)

    def test_rejects_bad_trial_count(self):
        with pytest.raises(ValueError):
            collision_study(WAREHOUSE, n_trials=0)

    def test_rejects_scenario_with_colliding_exact_paths(self):
        grid = GridMap(width=3, height=1, blocked=frozenset())
        head_on = Scenario(
            "head-on",
            grid,
            (RobotTask(1, Cell(0, 0), Cell(2, 0)), RobotTask(2, Cell(2, 0), Cell(0, 0))),
        )
        with pytest.raises(ValueError, match="collide"):
            collision_study(head_on, rates=[Fraction(0)], n_trials=1)

    def test_rejects_scenario_whose_exact_plans_fail(self):
        # A wall splits the map, so robot 1's exact search fails. No two
        # found paths collide, but a trial without an exact baseline has
        # neither a speedup nor a collision to measure against.
        grid = GridMap(width=5, height=3, blocked=frozenset(Cell(2, y) for y in range(3)))
        split = Scenario("split", grid, (
            RobotTask(1, Cell(0, 0), Cell(4, 0)), RobotTask(2, Cell(0, 2), Cell(1, 2))))
        with pytest.raises(ValueError, match=r"exact plans fail; robots without a path: 1$"):
            collision_study(split, n_trials=3)

    def test_exact_baseline_paths_are_checked_too(self, monkeypatch):
        # Only the exact plan of robot 1 crosses the blocked cell (2,1); the
        # perforated replays are lawful, so only a check of the exact
        # baseline replay catches it.
        grid = GridMap(width=5, height=3, blocked=frozenset({Cell(2, 1)}))
        scenario = Scenario("rows", grid, (
            RobotTask(1, Cell(0, 0), Cell(4, 0)), RobotTask(2, Cell(0, 2), Cell(4, 2))))
        detour = (Cell(0, 0), Cell(1, 0), Cell(1, 1), Cell(2, 1), Cell(3, 1), Cell(3, 0), Cell(4, 0))
        real_plan = executor_module.plan_multi_leg

        def plan(grid, task, spec):
            if spec.skip == 0 and task.robot_id == 1:
                return PlanOutcome(FOUND, detour, 7, 0)
            return real_plan(grid, task, spec)

        monkeypatch.setattr(executor_module, "plan_multi_leg", plan)
        with pytest.raises(RuntimeError, match=r"robot 1: .*blocked cell"):
            collision_study(scenario, rates=[Fraction(1, 2)], n_trials=1)

    def test_matches_a_full_replay_when_robots_fail(self):
        # No robot fails on the built-ins, so this 24x24 map with a quarter
        # of its cells blocked puts failed robots' records into the mean.
        rng = random.Random(1)
        grid = GridMap(width=24, height=24, blocked=frozenset(
            Cell(x, y) for y in range(24) for x in range(24) if rng.random() < 0.25))
        scenario = Scenario("clutter", grid, tuple(
            RobotTask(rid, s, g) for rid, (s, g) in enumerate(random_endpoints(grid, 1, 2), 1)))
        rates = [Fraction(0), Fraction(3, 4), Fraction(22, 25)]
        assert (collision_study(scenario, rates, n_trials=40, seed=9)
                == reference_collision_study(scenario, rates, 40, 9))
        spec = PerforationSpec.from_rate(Fraction(22, 25))
        failed = sum(not plan_multi_leg(trial.grid, task, spec).found
                     for trial, _ in harness_module._build_trials(scenario, 40, 9) for task in trial.tasks)
        assert failed == 13  # of 80 robot plans

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 1])
    @pytest.mark.parametrize("name", ["warehouse", "room"])
    def test_matches_a_full_replay_of_every_trial(self, name, seed):
        # Rate 0 replays no trial, the other rates only the trials whose
        # plans changed; skipping the rest must not change a row.
        rates = [Fraction(0), Fraction(3, 5), Fraction(3, 4), Fraction(4, 5), Fraction(22, 25)]
        scenario = builtin_scenario(name)
        assert (collision_study(scenario, rates, n_trials=100, seed=seed)
                == reference_collision_study(scenario, rates, 100, seed))

    def test_replays_only_trials_whose_plans_changed(self, replays):
        collision_study(WAREHOUSE, rates=[Fraction(0)], n_trials=20)
        assert replays == []
        collision_study(WAREHOUSE, rates=[Fraction(3, 4)], n_trials=20)
        assert 0 < len(replays) < 20

    def test_plans_walked_straight_are_not_searched_again(self, monkeypatch):
        # The default warehouse study searches, at each rate, exactly the
        # robots whose exact plan was not walked straight to each stop.
        searched = []
        real_plan = harness_module.plan_multi_leg

        def plan(grid, task, spec):
            searched.append(task)
            return real_plan(grid, task, spec)

        monkeypatch.setattr(harness_module, "plan_multi_leg", plan)
        collision_study(WAREHOUSE)
        trials = harness_module._build_trials(WAREHOUSE, DEFAULT_TRIALS, DEFAULT_SEED)
        bent = [task for trial, exact in trials for task in trial.tasks
                if exact[task.robot_id].expansions != sum(manhattan(a, b) + 1 for a, b in task.legs())]
        assert 0 < len(bent) < 2 * DEFAULT_TRIALS
        assert searched == bent * len(DEFAULT_STUDY_RATES)

    def test_changed_rate_plans_are_checked(self, monkeypatch):
        # Only the perforated plan of robot 1 crosses the blocked cell (2,1);
        # it differs from the exact path, so the trial is replayed and the
        # replay's free-cell check catches it. Robot 1's exact plan is
        # straight, so the study would derive its plan without a search:
        # no plan is derived here, and the injected one reaches the study.
        grid = GridMap(width=5, height=3, blocked=frozenset({Cell(2, 1)}))
        scenario = Scenario("rows", grid, (
            RobotTask(1, Cell(0, 0), Cell(4, 0)), RobotTask(2, Cell(0, 2), Cell(4, 2))))
        detour = (Cell(0, 0), Cell(1, 0), Cell(1, 1), Cell(2, 1), Cell(3, 1), Cell(3, 0), Cell(4, 0))
        real_plan = harness_module.plan_multi_leg

        def plan(grid, task, spec):
            if task.robot_id == 1:
                return PlanOutcome(FOUND, detour, 7, 0)
            return real_plan(grid, task, spec)

        monkeypatch.setattr(harness_module, "plan_multi_leg", plan)
        monkeypatch.setattr(harness_module, "_straight_plan", lambda task, exact, spec: None)
        with pytest.raises(RuntimeError, match=r"robot 1: .*blocked cell 2,1$"):
            collision_study(scenario, rates=[Fraction(1, 2)], n_trials=1)

    def test_failed_rate_plan_is_replayed(self, monkeypatch, replays):
        # A failed plan's path () differs from the exact path, so its trial
        # is replayed; the failure is no collision. At rate 0 the study
        # would take the exact plan as it is: no plan is derived here, and
        # the injected one reaches the study.
        real_plan = harness_module.plan_multi_leg

        def plan(grid, task, spec):
            if task.robot_id == 1:
                return PlanOutcome(NOT_FOUND, (), 1, 0)
            return real_plan(grid, task, spec)

        monkeypatch.setattr(harness_module, "plan_multi_leg", plan)
        monkeypatch.setattr(harness_module, "_straight_plan", lambda task, exact, spec: None)
        (row,) = collision_study(WAREHOUSE, rates=[Fraction(0)], n_trials=3)
        assert [report.failed_robots for report in replays] == [(1,)] * 3
        assert row.pct_collision_trials == 0.0

    def test_gives_up_when_no_variation_is_collision_free(self):
        # Two robots on a 2-cell corridor: every re-drawn trial swaps them
        # head-on, so the draws run out instead of looping forever.
        grid = GridMap(width=2, height=1, blocked=frozenset())
        parked = Scenario("parked", grid, (
            RobotTask(1, Cell(0, 0), Cell(0, 0), waypoints=(Cell(0, 0),)),
            RobotTask(2, Cell(1, 0), Cell(1, 0), waypoints=(Cell(1, 0),)),
        ))
        with pytest.raises(ValueError, match="trial 1: no collision-free"):
            collision_study(parked, rates=[Fraction(0)], n_trials=2)


SWEEP_ROWS = [
    SweepRow(
        rate=Fraction(1, 2),
        mean_speedup_wall=1.2345,
        mean_speedup_proxy=4 / 3,
        pct_len_increase=10.0,
        pct_failed=0.0,
        e_p=0.8333333333333334,
        max_increase_pct=12.5,
    ),
    SweepRow(
        rate=Fraction(0),
        mean_speedup_wall=0.0,
        mean_speedup_proxy=1.0,
        pct_len_increase=0.0,
        pct_failed=0.0,
        e_p=0.0,
        max_increase_pct=0.0,
    ),
]

COLLISION_ROWS = [
    CollisionRow(rate=Fraction(3, 4), n_trials=100, pct_collision_trials=2.0,
                 mean_speedup_proxy=1.9),
    CollisionRow(rate=Fraction(4, 5), n_trials=100, pct_collision_trials=4.0,
                 mean_speedup_proxy=2.25),
]


class TestReports:
    def test_sweep_csv_header_is_pinned(self):
        text = emit_reports(SWEEP_ROWS)
        assert text.splitlines()[0] == SWEEP_HEADER

    def test_collision_csv_header_is_pinned(self):
        text = emit_reports(COLLISION_ROWS)
        assert text.splitlines()[0] == COLLISION_HEADER

    def test_rate_emitted_as_fraction_and_decimal(self):
        text = emit_reports(SWEEP_ROWS)
        assert text.splitlines()[1].startswith("1/2,0.5,")
        assert text.splitlines()[2].startswith("0,0.0,")

    def test_sweep_round_trip_is_exact(self):
        assert parse_sweep_csv(emit_reports(SWEEP_ROWS)) == SWEEP_ROWS

    def test_collision_round_trip_is_exact(self):
        assert parse_collision_csv(emit_reports(COLLISION_ROWS)) == COLLISION_ROWS

    def test_table_format(self):
        text = emit_reports(SWEEP_ROWS, format="table")
        lines = text.splitlines()
        assert lines[0].split() == SWEEP_HEADER.split(",")
        assert len(lines) == 1 + len(SWEEP_ROWS)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="no rows"):
            emit_reports([])
        with pytest.raises(ValueError, match="format"):
            emit_reports(SWEEP_ROWS, format="json")
        with pytest.raises(ValueError, match="type"):
            emit_reports([1, 2, 3])

    def test_parsers_reject_foreign_headers(self):
        with pytest.raises(ValueError, match="header"):
            parse_sweep_csv(emit_reports(COLLISION_ROWS))
        with pytest.raises(ValueError, match="header"):
            parse_collision_csv(emit_reports(SWEEP_ROWS))
