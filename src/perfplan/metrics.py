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

# A perforated iteration queues at most one successor, with no heap call: a
# step toward the goal moves the search onto that cell at once, and any
# other step is appended to the list of the next f level. The deterministic
# work proxy charges it a quarter of a full expansion. That is a modelled
# convention, applied everywhere: on the clock a perforated iteration costs
# more than that (README "Benchmark" gives the measured ratio per workload),
# so the proxy overstates what it saves.
SKIP_POP_COST = 0.25


@dataclass(frozen=True, init=False)
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

    def __init__(self, case_id: int, exact_len: int, approx_len: int | None,
                 exact_expansions: int, approx_expansions: int, approx_skipped: int = 0,
                 exact_wall_time: float = 0.0, approx_wall_time: float = 0.0):
        # Filled like planner.PlanOutcome, through the instance dict rather
        # than one object.__setattr__ per field; the class stays frozen.
        d = self.__dict__
        d["case_id"] = case_id
        d["exact_len"] = exact_len
        d["approx_len"] = approx_len
        d["exact_expansions"] = exact_expansions
        d["approx_expansions"] = approx_expansions
        d["approx_skipped"] = approx_skipped
        d["exact_wall_time"] = exact_wall_time
        d["approx_wall_time"] = approx_wall_time
        if exact_len < 0:
            raise ValueError("exact_len must be >= 0")
        if approx_len is not None and approx_len < exact_len:
            raise ValueError("approximate path shorter than exact; counters are corrupt")
        if exact_expansions < 1:
            raise ValueError("exact run must have expanded at least the goal pop")
        # A failed perforated run may have perforated every iteration, so
        # approx_expansions == 0 is legal there, unlike exact_expansions.
        if approx_expansions < 0 or approx_skipped < 0:
            raise ValueError("negative work counters")
        if exact_wall_time < 0 or approx_wall_time < 0:
            raise ValueError("negative durations")

    @classmethod
    def from_outcomes(cls, case_id: int, exact, approx, exact_wall_time: float = 0.0,
                      approx_wall_time: float = 0.0) -> CaseRecord:
        """The record of one query planned exactly (`exact`, found) and
        perforated (`approx`, which may have failed), both PlanOutcomes."""
        return cls(case_id, exact.edges, approx.edges if approx.found else None,
                   exact.expansions, approx.expansions, approx.skipped,
                   exact_wall_time, approx_wall_time)

    @property
    def proxy_speedup(self) -> float:
        return speedup_proxy(self.exact_expansions, perforated_cost(self.approx_expansions, self.approx_skipped))

    @property
    def wall_speedup(self) -> float:
        # A perforated run too fast to time reads as 1 ns.
        return self.exact_wall_time / max(self.approx_wall_time, 1e-9)


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

    CaseRecord.proxy_speedup passes perforated_cost(...) as the approximate
    term, so that skipped pops are charged at the documented discount. Not
    guaranteed >= 1 per case; only aggregate trends are meaningful.
    """
    if exact_expansions <= 0 or approx_expansions <= 0:
        raise ValueError("speedup needs positive work counts on both sides")
    return exact_expansions / approx_expansions
