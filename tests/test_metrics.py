"""Path-quality error statistics and the deterministic work proxy."""

from dataclasses import FrozenInstanceError, astuple, replace
from fractions import Fraction

import pytest

from perfplan.gridworld import Cell, GridMap, RobotTask
from perfplan.metrics import (
    SKIP_POP_COST,
    CaseRecord,
    PathErrorStats,
    aggregate_error,
    case_error_pct,
    perforated_cost,
    speedup_proxy,
)
from perfplan.planner import FOUND, NOT_FOUND, PerforationSpec, PlanOutcome, plan_multi_leg


def record(case_id, exact_len, approx_len, **kw):
    kw.setdefault("exact_expansions", max(exact_len + 1, 1))
    kw.setdefault("approx_expansions", 1 if approx_len is not None else 0)
    return CaseRecord(case_id=case_id, exact_len=exact_len, approx_len=approx_len, **kw)


class TestCaseRecord:
    def test_approx_shorter_than_exact_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            record(0, 10, 9)

    def test_failed_case_is_legal_with_zero_executed_iterations(self):
        r = record(0, 10, None, approx_expansions=0, approx_skipped=40)
        assert r.approx_len is None

    def test_exact_run_must_have_expanded(self):
        with pytest.raises(ValueError):
            record(0, 10, 10, exact_expansions=0)

    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError):
            record(0, 10, 10, approx_expansions=-1)
        with pytest.raises(ValueError):
            record(0, 10, 10, approx_skipped=-1)
        with pytest.raises(ValueError):
            record(0, 10, 10, exact_wall_time=-0.1)
        with pytest.raises(ValueError):
            record(0, -1, None)


# Each of CaseRecord's checks, as the fields that break it and the message.
REJECTIONS = {
    "negative exact length": ({"exact_len": -1, "approx_len": None}, "exact_len"),
    "approximate shorter": ({"approx_len": 3}, "shorter"),
    "no exact expansion": ({"exact_expansions": 0}, "goal pop"),
    "negative expansions": ({"approx_expansions": -1}, "negative work"),
    "negative skips": ({"approx_skipped": -1}, "negative work"),
    "negative exact wall": ({"exact_wall_time": -0.1}, "durations"),
    "negative approximate wall": ({"approx_wall_time": -0.1}, "durations"),
}
VALID = {"case_id": 3, "exact_len": 4, "approx_len": 6, "exact_expansions": 5,
         "approx_expansions": 3, "approx_skipped": 4, "exact_wall_time": 0.5,
         "approx_wall_time": 0.25}


def _path(edges):
    return tuple(Cell(x, 0) for x in range(edges + 1))


class TestRecordContract:
    def test_defaults(self):
        r = CaseRecord(0, 4, None, 5, 0)
        assert astuple(r) == (0, 4, None, 5, 0, 0, 0.0, 0.0)

    def test_equals_hashes_and_prints_as_its_keyword_built_twin(self):
        r = CaseRecord(*VALID.values())
        twin = CaseRecord(**VALID)
        assert r == twin and hash(r) == hash(twin) and repr(r) == repr(twin)
        assert repr(r) == ("CaseRecord(case_id=3, exact_len=4, approx_len=6, exact_expansions=5, "
                           "approx_expansions=3, approx_skipped=4, exact_wall_time=0.5, "
                           "approx_wall_time=0.25)")
        assert r != replace(twin, approx_skipped=5)

    def test_replace_returns_the_same_class(self):
        r = replace(CaseRecord(**VALID), approx_len=None, exact_wall_time=0.0)
        twin = CaseRecord(**{**VALID, "approx_len": None, "exact_wall_time": 0.0})
        assert type(r) is CaseRecord
        assert r == twin and hash(r) == hash(twin) and repr(r) == repr(twin)

    def test_assignment_is_refused(self):
        r = CaseRecord(**VALID)
        with pytest.raises(FrozenInstanceError):
            r.approx_len = None
        with pytest.raises(FrozenInstanceError):
            del r.case_id
        assert r == CaseRecord(**VALID)

    @pytest.mark.parametrize("case", REJECTIONS)
    def test_every_check_rejects_a_direct_build(self, case):
        fields, message = REJECTIONS[case]
        with pytest.raises(ValueError, match=message):
            CaseRecord(**{**VALID, **fields})
        with pytest.raises(ValueError, match=message):
            replace(CaseRecord(**VALID), **fields)

    @pytest.mark.parametrize("case", REJECTIONS)
    def test_every_check_rejects_a_build_from_outcomes(self, case):
        fields, message = REJECTIONS[case]
        f = {**VALID, **fields}
        exact = PlanOutcome(FOUND, _path(f["exact_len"]), f["exact_expansions"], 0)
        approx = (PlanOutcome(FOUND, _path(f["approx_len"]), f["approx_expansions"], f["approx_skipped"])
                  if f["approx_len"] is not None
                  else PlanOutcome(NOT_FOUND, (), f["approx_expansions"], f["approx_skipped"], 0))
        with pytest.raises(ValueError, match=message):
            CaseRecord.from_outcomes(f["case_id"], exact, approx, f["exact_wall_time"], f["approx_wall_time"])


class TestFromOutcomes:
    EXACT = PlanOutcome(FOUND, tuple(Cell(x, 0) for x in range(5)), 5, 0)

    def test_found_outcome(self):
        approx = PlanOutcome(FOUND, tuple(Cell(x, 0) for x in range(7)), 3, 4)
        assert (CaseRecord.from_outcomes(3, self.EXACT, approx, 0.5, 0.25)
                == CaseRecord(3, 4, 6, 5, 3, 4, 0.5, 0.25))

    def test_failed_outcome_has_no_length(self):
        approx = PlanOutcome(NOT_FOUND, (), 2, 9, failed_leg=0)
        assert CaseRecord.from_outcomes(0, self.EXACT, approx) == CaseRecord(0, 4, None, 5, 2, 9)

    def test_multi_leg_outcome(self):
        # Legs (0,0) -> (2,2) -> (4,0): 4 + 4 edges, counters summed by the plan.
        grid = GridMap(width=5, height=3, blocked=frozenset())
        task = RobotTask(1, Cell(0, 0), Cell(4, 0), waypoints=(Cell(2, 2),))
        exact = plan_multi_leg(grid, task)
        approx = plan_multi_leg(grid, task, PerforationSpec.from_rate(Fraction(1, 2)))
        r = CaseRecord.from_outcomes(7, exact, approx)
        assert (r.case_id, r.exact_len, r.approx_len) == (7, 8, len(approx.path) - 1)
        assert (r.exact_expansions, r.approx_expansions, r.approx_skipped) == (
            exact.expansions, approx.expansions, approx.skipped)
        assert r.approx_skipped > 0


class TestRecordSpeedups:
    def test_proxy_speedup_discounts_skips(self):
        assert record(0, 10, 10, exact_expansions=400, approx_expansions=100,
                      approx_skipped=240).proxy_speedup == 2.5

    def test_wall_speedup_of_untimed_runs_is_zero(self):
        assert record(0, 10, 10).wall_speedup == 0.0

    def test_wall_speedup_floors_an_untimed_perforated_run(self):
        assert record(0, 10, 10, exact_wall_time=0.003).wall_speedup == 0.003 / 1e-9


class TestCaseErrorPct:
    def test_unchanged_path_is_zero(self):
        assert case_error_pct(10, 10) == 0.0

    def test_ten_percent_exact(self):
        # integer numerator first, so the division is a single rounding step
        assert case_error_pct(11, 10) == 10.0
        assert case_error_pct(33, 30) == 10.0

    def test_zero_length_exact_rejected(self):
        with pytest.raises(ValueError):
            case_error_pct(0, 0)


class TestAggregateError:
    def test_single_unchanged_case(self):
        stats = aggregate_error([record(0, 10, 10)])
        assert stats == PathErrorStats(
            e_p=0.0, n_cases=1, n_increased=0, n_failed=0, max_increase_pct=0.0
        )
        assert stats.n_unchanged == 1

    def test_mixed_fixture_mean_is_exact(self):
        # one +10% case and one unchanged case average to exactly 5.0
        stats = aggregate_error([record(0, 10, 11), record(1, 20, 20)])
        assert stats.e_p == 5.0
        assert stats.n_increased == 1
        assert stats.max_increase_pct == 10.0

    def test_failed_case_excluded_from_mean(self):
        stats = aggregate_error(
            [record(0, 10, 11), record(1, 20, 20), record(2, 15, None)]
        )
        assert stats.e_p == 5.0
        assert stats.n_failed == 1
        assert stats.n_cases == 3
        assert stats.n_unchanged == 1

    def test_all_failed_rejected(self):
        with pytest.raises(ValueError, match="failed"):
            aggregate_error([record(0, 10, None), record(1, 8, None)])

    def test_mean_is_exactly_rounded_on_every_interpreter(self):
        # The plain float sum of these errors rounds differently before and
        # after CPython 3.12; fmean sums them exactly on every version.
        stats = aggregate_error([record(0, 3, 4), record(1, 3, 6), record(2, 7, 9)])
        assert stats.e_p == 53.96825396825397

    def test_scale_invariance(self):
        a = aggregate_error([record(0, 10, 11)])
        b = aggregate_error([record(0, 20, 22)])
        assert a.e_p == b.e_p == 10.0

    def test_counts_partition_cases(self):
        recs = [
            record(0, 10, 10),
            record(1, 10, 12),
            record(2, 10, None),
            record(3, 5, 5),
            record(4, 4, 9),
        ]
        stats = aggregate_error(recs)
        assert stats.n_cases == 5
        assert stats.n_unchanged + stats.n_increased + stats.n_failed == 5
        assert stats.n_increased == 2
        assert stats.max_increase_pct == 125.0


class TestWorkProxy:
    def test_skip_discount_is_pinned(self):
        assert SKIP_POP_COST == 0.25
        assert perforated_cost(10, 8) == 12.0
        assert perforated_cost(10, 0) == 10.0

    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError):
            perforated_cost(-1, 0)
        with pytest.raises(ValueError):
            perforated_cost(0, -1)

    def test_speedup_of_identical_work_is_one(self):
        assert speedup_proxy(100, 100) == 1.0

    def test_speedup_uses_discounted_denominator(self):
        assert speedup_proxy(400, perforated_cost(100, 240)) == 2.5

    def test_speedup_rejects_non_positive_work(self):
        with pytest.raises(ValueError):
            speedup_proxy(0, 10)
        with pytest.raises(ValueError):
            speedup_proxy(10, 0.0)
