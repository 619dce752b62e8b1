"""Quality and performance metrics for exact-vs-perforated planning runs.

Path quality follows the average-percentage-increase formula
e_p = mean over cases of 100 * (A - O) / O, where O and A are the exact and
approximate edge counts. Failed approximate searches are excluded from the
mean and tallied separately, mirroring how failure rates are reported next to
error rates rather than folded into them.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean

# A perforated iteration queues at most one successor, and as that key is
# carried past the heap to the next pop it usually pops nothing from the
# heap either. The deterministic work proxy charges it a quarter of a full
# expansion. That is a modelled convention, applied everywhere: on the clock
# a perforated iteration still costs 0.60-0.73 of a full one (per-workload
# medians, README "Benchmark"), so the proxy overstates what it saves.
SKIP_POP_COST = 0.25


@dataclass(frozen=True)
class CaseRecord:
    """One benchmark case: exact run vs perforated run of the same query.

    approx_len is None when the perforated search failed. Wall times are
    informative only; every acceptance-bearing number derives from the
    deterministic counters.
    """

    case_id: int
    exact_len: int
    approx_len: int | None
    exact_expansions: int
    approx_expansions: int
    approx_skipped: int = 0
    exact_wall_time: float = 0.0
    approx_wall_time: float = 0.0

    def __post_init__(self):
        if self.exact_len < 0:
            raise ValueError("exact_len must be >= 0")
        if self.approx_len is not None and self.approx_len < self.exact_len:
            raise ValueError("approximate path shorter than exact; counters are corrupt")
        if self.exact_expansions < 1:
            raise ValueError("exact run must have expanded at least the goal pop")
        # A failed perforated run may have perforated every iteration, so
        # approx_expansions == 0 is legal there, unlike exact_expansions.
        if self.approx_expansions < 0 or self.approx_skipped < 0:
            raise ValueError("negative work counters")
        if self.exact_wall_time < 0 or self.approx_wall_time < 0:
            raise ValueError("negative durations")


@dataclass(frozen=True)
class PathErrorStats:
    e_p: float
    n_cases: int
    n_increased: int
    n_failed: int
    max_increase_pct: float

    @property
    def n_unchanged(self) -> int:
        return self.n_cases - self.n_increased - self.n_failed


def case_error_pct(approx_len: int, exact_len: int) -> float:
    """100 * (A - O) / O for one case.

    The numerator is formed in integer arithmetic before the division so that
    decimal-friendly fixtures (e.g. 11 vs 10) come out exact in binary floats.
    """
    if exact_len < 1:
        raise ValueError("exact_len must be >= 1 (zero-length paths are excluded upstream)")
    return 100 * (approx_len - exact_len) / exact_len


def aggregate_error(records) -> PathErrorStats:
    """Mean percentage path-length increase over the Found cases.

    NotFound cases are excluded from the mean and counted in n_failed;
    an all-failed record set has no defined mean and is rejected.
    """
    records = list(records)
    found = [r for r in records if r.approx_len is not None]
    if not found:
        raise ValueError("all cases failed; e_p is undefined on an empty Found set")
    errors = [case_error_pct(r.approx_len, r.exact_len) for r in found]
    return PathErrorStats(
        e_p=fmean(errors),
        n_cases=len(records),
        n_increased=sum(1 for e in errors if e > 0),
        n_failed=len(records) - len(found),
        max_increase_pct=max(errors),
    )


def perforated_cost(expansions: int, skipped: int) -> float:
    """Weighted work of a perforated run: full expansions plus discounted skips."""
    if expansions < 0 or skipped < 0:
        raise ValueError("negative work counters")
    return expansions + SKIP_POP_COST * skipped


def speedup_proxy(exact_expansions, approx_expansions) -> float:
    """exact work / approximate work, the deterministic stand-in for wall clock.

    Callers pass perforated_cost(...) as the approximate term so that skipped
    pops are charged at the documented discount. Not guaranteed >= 1 per case;
    only aggregate trends are meaningful.
    """
    if exact_expansions <= 0 or approx_expansions <= 0:
        raise ValueError("speedup needs positive work counts on both sides")
    return exact_expansions / approx_expansions
