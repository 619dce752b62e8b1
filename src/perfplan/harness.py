"""Seeded benchmark sweeps and the collision study, plus report emission.

The sweep reproduces the rate-ladder experiment: one seeded endpoint set is
planned exactly and at each perforation rate, and per-rate quality/work
aggregates are emitted as CSV or an aligned table. The collision study replays
a multi-robot scenario over seeded task variations and reports how often
individually clean approximate paths collide with each other.

Every acceptance-bearing column is derived from deterministic counters; wall
clock is measured (median of 5 repetitions) but reported for orientation only.
"""

from __future__ import annotations

import csv
import io
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from statistics import fmean

from .executor import simulate
from .gridworld import _MAX_DRAWS, GridMap, RobotTask, Scenario, _draw_pair, component_labels, random_endpoints
from .metrics import CaseRecord, PathErrorStats, aggregate_error, perforated_cost, speedup_proxy
from .planner import NO_PERFORATION, PerforationSpec, astar_exact, astar_perforated

DEFAULT_SEED = 9
DEFAULT_CASES = 20
DEFAULT_TRIALS = 100

# The ten ladder rates as exact rationals (0.2 .. 0.88).
DEFAULT_RATE_LADDER = (
    Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 5),
    Fraction(3, 4), Fraction(4, 5), Fraction(5, 6), Fraction(17, 20), Fraction(22, 25),
)

# Rates {3/5, 3/4, 4/5} are the collision-study trio.
DEFAULT_STUDY_RATES = (Fraction(3, 5), Fraction(3, 4), Fraction(4, 5))

# Two-decimal shorthands map onto the ladder's exact rationals; anything else
# parses as an exact decimal or k/n fraction.
RATE_ALIASES = {f"{float(r):.2f}".rstrip("0"): r for r in DEFAULT_RATE_LADDER}

SWEEP_HEADER = "rate,rate_decimal,mean_speedup_wall,mean_speedup_proxy,pct_len_increase,pct_failed,e_p,max_increase_pct"
COLLISION_HEADER = "rate,n_trials,pct_collision_trials,mean_speedup_proxy"


def parse_rate(text: str) -> Fraction:
    """Parse 'k/n', an exact decimal, or a two-decimal ladder shorthand."""
    token = text.strip()
    if token in RATE_ALIASES:
        rate = RATE_ALIASES[token]
    else:
        try:
            rate = Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse perforation rate {text!r}") from exc
    if not 0 <= rate < 1:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    return rate


def parse_rate_list(text: str) -> tuple:
    rates = tuple(parse_rate(tok) for tok in text.split(",") if tok.strip())
    if not rates:
        raise ValueError("empty rate list")
    return rates


@dataclass(frozen=True)
class SweepRow:
    rate: Fraction
    mean_speedup_wall: float
    mean_speedup_proxy: float
    pct_len_increase: float
    pct_failed: float
    e_p: float
    max_increase_pct: float

    @property
    def rate_decimal(self) -> float:
        return float(self.rate)


@dataclass(frozen=True)
class CollisionRow:
    rate: Fraction
    n_trials: int
    pct_collision_trials: float
    mean_speedup_proxy: float


# Report columns per row type, in CSV order: emission, the table and parsing
# all read them here. `rate_decimal` is derived, so parsing skips it.
_COLUMNS = {SweepRow: tuple(SWEEP_HEADER.split(",")), CollisionRow: tuple(COLLISION_HEADER.split(","))}
_PARSE_COLUMN = {"rate": parse_rate, "n_trials": int}


def _median_wall(run):
    # Median of 5 timings damps scheduler jitter; never acceptance-gated.
    # Every rep returns the same result, so the last one is the counted run.
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2], result


def sweep(scenario_grid: GridMap, rates=None, n_cases: int = DEFAULT_CASES,
          seed: int = DEFAULT_SEED, measure_wall: bool = True) -> list:
    """One SweepRow per rate over a shared seeded endpoint set (modulo mode).

    The same n_cases endpoint pairs are planned exactly once and then at every
    rate, so rows are comparable; all columns except mean_speedup_wall are
    deterministic in (grid, rates, n_cases, seed). With measure_wall=False
    each search runs once and every wall time reads 0.
    """
    if n_cases < 1:
        raise ValueError("n_cases must be >= 1")
    ladder = DEFAULT_RATE_LADDER if rates is None else tuple(rates)
    pairs = random_endpoints(scenario_grid, seed, n_cases)

    def timed(run):
        return _median_wall(run) if measure_wall else (0.0, run())

    exact_walls, exact_runs = zip(*(
        timed(lambda: astar_exact(scenario_grid, s, g)) for s, g in pairs))

    rows = []
    for rate in ladder:
        spec = PerforationSpec.from_rate(rate)
        records = []
        for case_id, ((s, g), exact) in enumerate(zip(pairs, exact_runs)):
            approx_wall, out = timed(lambda: astar_perforated(scenario_grid, s, g, spec))
            records.append(CaseRecord(
                case_id=case_id,
                exact_len=exact.edges,
                approx_len=out.edges if out.found else None,
                exact_expansions=exact.expansions,
                approx_expansions=out.expansions,
                approx_skipped=out.skipped,
                exact_wall_time=exact_walls[case_id],
                approx_wall_time=approx_wall,
            ))
        if any(r.approx_len is not None for r in records):
            stats = aggregate_error(records)
        else:
            # Every case failed at this rate: the error mean is undefined,
            # reported as 0 next to a 100% failure column.
            stats = PathErrorStats(0.0, len(records), 0, len(records), 0.0)
        rows.append(SweepRow(
            rate=rate,
            mean_speedup_wall=fmean(r.exact_wall_time / max(r.approx_wall_time, 1e-9) for r in records),
            mean_speedup_proxy=fmean(speedup_proxy(r.exact_expansions, perforated_cost(
                r.approx_expansions, r.approx_skipped)) for r in records),
            pct_len_increase=100 * stats.n_increased / stats.n_cases,
            pct_failed=100 * stats.n_failed / stats.n_cases,
            e_p=stats.e_p,
            max_increase_pct=stats.max_increase_pct,
        ))
    return rows


def _resample_tasks(scenario: Scenario, rng: random.Random, labels, free_cells):
    """Fresh start/goal pairs for every robot, or None if some robot finds no
    valid pair within _MAX_DRAWS draws."""
    tasks = []
    used_starts, used_goals = set(), set()
    for base in scenario.tasks:
        pair = _draw_pair(rng, free_cells, labels, (used_starts, used_goals))
        if pair is None:
            return None
        used_starts.add(pair[0])
        used_goals.add(pair[1])
        tasks.append(RobotTask(base.robot_id, *pair))
    return Scenario(scenario.name, scenario.grid, tuple(tasks))


def _build_trials(scenario: Scenario, n_trials: int, seed: int) -> list:
    """Trial 0 is the scenario verbatim; later trials re-sample start/goal
    pairs (waypoints dropped) and are re-drawn until their exact paths are
    mutually collision-free, so any reported collision is perforation-induced.
    """
    exact_report = simulate(scenario, NO_PERFORATION)
    if exact_report.collisions:
        raise ValueError(
            "scenario's own exact paths collide; the study measures "
            "perforation-induced collisions only")
    trials = [(scenario, exact_report)]
    labels = component_labels(scenario.grid)
    free_cells = scenario.grid.free_cells()
    for trial in range(1, n_trials):
        rng = random.Random(seed * 1_000_003 + trial)
        for _ in range(_MAX_DRAWS):
            candidate = _resample_tasks(scenario, rng, labels, free_cells)
            if candidate is None:
                break
            exact_report = simulate(candidate, NO_PERFORATION)
            if not exact_report.collisions:
                trials.append((candidate, exact_report))
                break
        if len(trials) == trial:  # no draw was accepted
            raise ValueError(f"trial {trial}: no collision-free task variation in {_MAX_DRAWS} draws")
    return trials


def collision_study(scenario: Scenario, rates=None, n_trials: int = DEFAULT_TRIALS,
                    seed: int = DEFAULT_SEED) -> list:
    """Fraction of seeded trials whose perforated plans collide, per rate."""
    if len(scenario.tasks) < 2:
        raise ValueError("collision study needs at least two robots")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    study_rates = DEFAULT_STUDY_RATES if rates is None else tuple(rates)
    trials = _build_trials(scenario, n_trials, seed)

    rows = []
    for rate in study_rates:
        spec = PerforationSpec.from_rate(rate)
        n_collision = 0
        proxies = []
        for trial_scenario, exact_report in trials:
            report = simulate(trial_scenario, spec)
            for rid, out in report.outcomes.items():
                proxies.append(speedup_proxy(
                    exact_report.outcomes[rid].expansions,
                    perforated_cost(out.expansions, out.skipped)))
            if report.collisions:
                n_collision += 1
        rows.append(CollisionRow(
            rate=rate,
            n_trials=n_trials,
            pct_collision_trials=100 * n_collision / n_trials,
            mean_speedup_proxy=fmean(proxies),
        ))
    return rows


def emit_reports(rows, format: str = "csv") -> str:
    """Render sweep or collision rows as CSV (pinned headers) or a text table."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to emit")
    if format not in ("csv", "table"):
        raise ValueError(f"unknown report format {format!r}")
    columns = _COLUMNS.get(type(rows[0]))
    if columns is None:
        raise ValueError(f"cannot emit rows of type {type(rows[0]).__name__}")
    cells = [[str(getattr(r, col)) for col in columns] for r in rows]
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(cells)
        return buf.getvalue()
    widths = [max(len(col), *(len(row[i]) for row in cells)) for i, col in enumerate(columns)]
    lines = ["  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(val.ljust(w) for val, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _parse_report(text: str, row_type, kind: str) -> list:
    columns = _COLUMNS[row_type]
    reader = csv.reader(io.StringIO(text))
    if tuple(next(reader, ())) != columns:
        raise ValueError(f"not a {kind} CSV: header mismatch")
    return [row_type(**{col: _PARSE_COLUMN.get(col, float)(val)
                        for col, val in zip(columns, rec) if col != "rate_decimal"})
            for rec in reader if rec]


def parse_sweep_csv(text: str) -> list:
    """Inverse of emit_reports for sweep CSV; exact for every column."""
    return _parse_report(text, SweepRow, "sweep")


def parse_collision_csv(text: str) -> list:
    return _parse_report(text, CollisionRow, "collision")
