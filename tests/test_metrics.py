"""Path-quality error statistics and the deterministic work proxy."""

import pytest

from perfplan.metrics import (
    SKIP_POP_COST,
    CaseRecord,
    PathErrorStats,
    aggregate_error,
    case_error_pct,
    perforated_cost,
    speedup_proxy,
)


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
