"""perfplan's benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; perfplan is imported from its
`src/` directory and nowhere else. With `--trace 0` the run times the
workload untraced and prints every end-to-end metric; with `--trace 1` it
runs the same operations untraced and then traced, checks that both give
identical outputs, and prints the per-layer metrics. Metric names and units
come from BENCHMARK.json. Human-readable lines go first, the result object
is the last line of standard output, and a self-describing copy is written
to `.bench_out/`. The exit code is 1 when any output check failed or an
operation hit its wall-clock cap, and also 1, with no result line, when
the checkout holds no perfplan source.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import clock
import spans

PROCESS_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
HARD_LIMIT_S = 165      # every run ends well inside the driver's 180 s
OP_CAP_S = 60           # no single operation may run longer than this
SETUP_REPEATS = 5
TRACE_PAIRS = 500       # a traced run's iteration counts cover exactly these first pairs
# Least operations of (fleet, cli) per run: three of each kind untraced, so
# every end-to-end time is a median; one of each per half of a traced run.
MIN_OPS = {0: (6, 9), 1: (2, 3)}

# Which end-to-end metric each per-layer metric should move, and where.
MOVES = {
    "planner.us_per_full_iter": "exact_p50_ms, exact_p99_ms, searches_per_s on clutter-ladder; assign_ms on fleet",
    "planner.exact_ms": "exact_p50_ms, exact_p99_ms, searches_per_s on clutter-ladder; assign_ms on fleet",
    "planner.us_per_perf_iter": "perf_p50_ms, perf_p99_ms on warehouse-ladder",
    "planner.perforated_ms": "perf_p50_ms, perf_p99_ms on warehouse-ladder",
    "planner.full_iters": "perf_p50_ms on the ladders; a change on equal inputs also flags plan_found_pct, path_excess_pct",
    "planner.perf_iters": "perf_p50_ms on the ladders; a change on equal inputs also flags plan_found_pct, path_excess_pct",
    "planner.iter_ratio": "perf_p50_ms on the ladders; a change on equal inputs also flags plan_found_pct, path_excess_pct",
    "planner.skip_cost_ratio": "informational: the measured cost of a perforated iteration, beside metrics.skip_pop_cost",
    "planner.speedup_": "informational, gates nothing",
    "planner.found_ratio": "informational, gates nothing",
    "metrics.skip_pop_cost": "informational: the modelled cost the proxy speedup assumes",
    "assignment.": "assign_ms on fleet (the other workloads dispatch less); no ladder latency",
    "executor.": "simulate_ms on fleet; cli_collisions_ms on cli-builtins",
    "harness.": "cli_sweep_ms, cli_collisions_ms on cli-builtins",
    "gridworld.component_labels_ms": "setup_s on the ladders",
    "gridworld.random_endpoints_ms": "setup_s on the ladders",
    "gridworld.endpoint_accept_ratio": "setup_s on the ladders",
    "gridworld.load_scenario_ms": "cli_light_ms on cli-builtins",
    "cli.self_ms": "cli_light_ms on cli-builtins",
    "trace_overhead_pct": "nothing: the cost of tracing itself",
}


class OpTimeout(BaseException):
    """Raised by SIGALRM in the operation that overran its cap.

    A BaseException, so that no `except Exception` in the code under test
    can swallow it."""


def _load_perfplan():
    src = ROOT / "src"
    if not (src / "perfplan" / "__init__.py").is_file():
        sys.exit(f"error: no perfplan source under {src}; run from the root of a perfplan checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import perfplan  # noqa: F401
    import_s = time.perf_counter() - t0
    if Path(perfplan.__file__).resolve().parent != (src / "perfplan").resolve():
        sys.exit(f"error: imported perfplan from {perfplan.__file__}, not from {src}")
    return perfplan, import_s


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timing(values) -> dict:
    """Median, plus the highest of p99/p90 that has ten samples beyond it, in ms."""
    out = {"n": len(values), "p50": statistics.median(values) * 1e3}
    for q, label in ((0.99, "p99"), (0.9, "p90")):
        if len(values) * (1 - q) >= 10 - 1e-9:
            out[label] = percentile(values, q) * 1e3
            break
    return out


def fit_iteration_costs(rows):
    """Least squares t = c + a*full + b*perforated; returns (a, b, c) in seconds."""
    s = [[0.0] * 3 for _ in range(3)]
    v = [0.0] * 3
    for full, perf, t in rows:
        x = (full, perf, 1.0)
        for i in range(3):
            v[i] += x[i] * t
            for j in range(3):
                s[i][j] += x[i] * x[j]

    def det(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det(s)
    if d == 0:
        return 0.0, 0.0, 0.0
    return tuple(det([[v[r] if c == k else s[r][c] for c in range(3)] for r in range(3)]) / d
                 for k in range(3))


class Aborted(Exception):
    """An operation raised or overran its cap; the run stops measuring."""


class Run:
    def __init__(self, args, wl, import_s):
        self.args, self.wl, self.import_s = args, wl, import_s
        self.failures: list = []
        self.attempted = 0
        self.current = "set-up"
        self.clock = clock.Clock()
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, *_):
        raise OpTimeout(f"{self.current} exceeded its wall-clock cap")

    def capped(self, what, fn, *args):
        """Call fn(*args) under the per-operation cap and the run's hard limit."""
        self.current = what
        left = HARD_LIMIT_S - (time.perf_counter() - PROCESS_START)
        if left <= 0:
            raise OpTimeout(f"{what} not started: the run's {HARD_LIMIT_S} s limit is spent")
        signal.setitimer(signal.ITIMER_REAL, min(OP_CAP_S, left))
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def setup(self, span):
        with span("setup"):
            inputs = workloads.build_inputs(self.wl, self.args.seed)
            workloads.warm_up(inputs)
        return inputs

    def measure(self, inputs, seconds, span, rounds=None):
        """Run rounds of every family until `seconds` have passed and each
        family has its least number of operations, or exactly `rounds` rounds.
        Returns the families and the number of rounds run."""
        families = [cls(inputs, span, self.clock) for cls in workloads.FAMILIES]
        per_round = self.wl.round
        # An untraced run covers every pair, so each rate has its p99 sample
        # count; each half of a traced run covers the pairs its counts use.
        least_pairs = TRACE_PAIRS if self.args.trace else len(inputs.pairs)
        least = max(math.ceil(m / n) for m, n in zip((least_pairs,) + MIN_OPS[self.args.trace], per_round))
        deadline = time.perf_counter() + seconds
        done = [0] * len(families)
        r = 0
        while r < rounds if rounds else (r < least or time.perf_counter() < deadline):
            for f, fam in enumerate(families):
                for _ in range(per_round[f]):
                    try:
                        self.capped(f"{type(fam).__name__.lower()} operation {done[f]}", fam.op, done[f])
                    except (Exception, OpTimeout) as exc:  # a defect in the code under test
                        fam.fail(f"operation {done[f]}: {type(exc).__name__}: {exc}")
                        self.collect(families)
                        raise Aborted(fam.failures[-1]) from exc
                    done[f] += 1
            r += 1
        return families, r

    def collect(self, families):
        for fam in families:
            self.attempted += fam.attempted
            self.failures += fam.failures

    def verify(self, families):
        self.capped("ladder checks after the timed window", families[0].verify)
        self.collect(families)


def end_to_end(run, families, setup_times) -> tuple:
    ladder, fleet, cli_fam = families
    per_rate = list(zip(*(secs for _, secs in ladder.pair_times)))
    top = len(workloads.LADDER_RATES) - 1
    found_top = sum(1 for row in ladder.first if row[top][0])
    searches = sum(len(times) for times in per_rate)
    stats = {
        "setup_s": {"value": run.import_s / run.clock.factors[0] + statistics.median(setup_times),
                    "n": len(setup_times)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
        "searches_per_s": {"value": searches / sum(map(sum, per_rate)), "n": searches},
        "plan_found_pct": {"value": 100 * found_top / len(ladder.first), "n": len(ladder.first)},
        "path_excess_pct": {"value": ladder.e_p, "n": found_top},
    }
    for name, values in (("exact", per_rate[0]), ("perf", per_rate[top])):
        t = timing(values)
        stats[f"{name}_p50_ms"] = {"value": t["p50"], **t}
        stats[f"{name}_p99_ms"] = {"value": t["p99"], **t}
    for name, values in (("assign_ms", fleet.dispatch_times), ("simulate_ms", fleet.replay_times),
                         ("cli_sweep_ms", cli_fam.times["sweep"]),
                         ("cli_collisions_ms", cli_fam.times["collisions"]),
                         ("cli_light_ms", cli_fam.times["light"])):
        t = timing(values)
        stats[name] = {"value": t["p50"], **t}
    info = {
        "failed_ops_pct": 100 * len(run.failures) / max(run.attempted, 1),
        "plan_fail_pct": 100 - stats["plan_found_pct"]["value"],
        "speed_factor_median": run.clock.factor_median(),
        "speed_factor_probes": len(run.clock.factors),
    }
    return stats, info


def per_layer(families_a, spans_b, factor_b, inputs, overhead_pct) -> tuple:
    """Per-layer metrics: counts, the fit and speedups from the untraced
    families, times from the traced spans scaled by their phase's speed."""
    from perfplan import harness, metrics
    ladder = families_a[0]
    first = ladder.first[:TRACE_PAIRS]
    idx = spans.SpanIndex(spans_b, factor_b)
    out = {}

    a, b, _ = fit_iteration_costs(
        (ladder.first[k][r][2], ladder.first[k][r][3], t)
        for k, secs in ladder.pair_times for r, t in enumerate(secs))
    out["planner.us_per_full_iter"] = a * 1e6
    out["planner.us_per_perf_iter"] = b * 1e6
    out["planner.skip_cost_ratio"] = b / a if a else 0.0
    out["metrics.skip_pop_cost"] = metrics.SKIP_POP_COST
    for key, fn, op in (("exact_ms", "astar_exact", ladder.names[0]),
                        ("perforated_ms", "astar_perforated", ladder.names[-1])):
        out[f"planner.{key}"] = spans.median_ms(
            idx.duration(s) for s in idx.named(f"planner.{fn}") if s[1] >= 0 and idx.by_id[s[1]][2] == op)

    exact_work = [row[0][2] for row in first]
    counted = [(k, secs) for k, secs in ladder.pair_times if k < len(first)]
    for r, rate in enumerate(workloads.LADDER_RATES):
        tok = workloads.rate_token(rate)
        full = [row[r][2] for row in first]
        perf = [row[r][3] for row in first]
        out[f"planner.full_iters.{tok}"] = statistics.fmean(full)
        if r == 0:
            continue
        out[f"planner.perf_iters.{tok}"] = statistics.fmean(perf)
        out[f"planner.iter_ratio.{tok}"] = (sum(full) + sum(perf)) / sum(exact_work)
        found = [row[r][0] for row in first]
        out[f"planner.found_ratio.{tok}"] = sum(found) / len(first)
        for subset, keep in (("found", lambda k: found[k]), ("all", lambda k: True)):
            ex = sum(secs[0] for k, secs in counted if keep(k))
            ap = sum(secs[r] for k, secs in counted if keep(k))
            out[f"planner.speedup_wall_{subset}.{tok}"] = ex / ap if ap else 0.0
            ks = [k for k in range(len(first)) if keep(k)]
            cost = sum(metrics.perforated_cost(full[k], perf[k]) for k in ks)
            out[f"planner.speedup_proxy_{subset}.{tok}"] = (
                metrics.speedup_proxy(sum(exact_work[k] for k in ks), cost) if ks and cost else 0.0)

    builds = idx.named("assignment.build_cost_matrix", under="fleet.dispatch")
    out["assignment.build_cost_matrix_ms"] = spans.median_ms(idx.duration(s) for s in builds)
    out["assignment.hungarian_ms"] = spans.median_ms(
        idx.duration(s) for s in idx.named("assignment.hungarian", under="fleet.dispatch"))
    out["assignment.cost_searches"] = statistics.fmean(
        len(idx.descendants(s, "planner.astar_exact")) for s in builds) if builds else 0.0

    sims = idx.named("executor.simulate", under="fleet.replay.*")
    out["executor.detect_collisions_ms"] = spans.median_ms(
        idx.duration(s) for s in idx.named("executor.detect_collisions", under="fleet.replay.*"))
    out["executor.plan_ms"] = spans.median_ms(
        sum(idx.duration(c) for c in idx.descendants(s, "planner.plan_multi_leg")) for s in sims)
    shape = families_a[1].replay_shape
    out["executor.pair_ticks"] = statistics.fmean(r * (r - 1) / 2 * t for r, t, _ in shape)
    out["executor.collision_events"] = statistics.fmean(e for _, _, e in shape)

    sweeps = idx.named("harness.sweep")
    per_sweep = harness.DEFAULT_CASES * (1 + len(harness.DEFAULT_RATE_LADDER))
    out["harness.sweep_ms"] = spans.median_ms(idx.duration(s) for s in sweeps)
    out["harness.searches_per_case"] = statistics.fmean(
        (len(idx.descendants(s, "planner.astar_exact")) + len(idx.descendants(s, "planner.astar_perforated")))
        / per_sweep for s in sweeps)
    studies = idx.named("harness.collision_study")
    out["harness.collision_study_ms"] = spans.median_ms(idx.duration(s) for s in studies)
    out["harness.simulations_per_trial"] = statistics.fmean(
        len(idx.descendants(s, "executor.simulate")) / harness.DEFAULT_TRIALS for s in studies)

    out["gridworld.component_labels_ms"] = spans.median_ms(
        idx.duration(s) for s in idx.named("gridworld.component_labels", under="setup"))
    out["gridworld.random_endpoints_ms"] = spans.median_ms(
        idx.duration(s) for s in idx.named("gridworld.random_endpoints", under="setup"))
    out["gridworld.endpoint_accept_ratio"] = inputs.accept_ratio
    out["gridworld.load_scenario_ms"] = spans.median_ms(
        idx.duration(s) for s in idx.named("gridworld.load_scenario"))
    out["cli.self_ms"] = spans.median_ms(idx.self_time(s) for s in idx.named("cli.main"))
    out["trace_overhead_pct"] = overhead_pct
    return out, idx


def moves_for(name: str) -> str:
    best = max((p for p in MOVES if name.startswith(p)), key=len, default=None)
    return MOVES[best] if best else ""


def _digests(inputs, families) -> dict:
    return {"inputs": inputs.digest(), **{type(f).__name__.lower(): f.digest() for f in families}}


def measure_untraced(run):
    setup_times, inputs, input_digest = [], None, None
    for i in range(SETUP_REPEATS):
        run.clock.probe()
        t0 = time.perf_counter()
        inputs = run.capped(f"set-up {i}", run.setup, contextlib.nullcontext)
        setup_times.append(run.clock.scaled(t0, time.perf_counter()))
        if input_digest not in (None, inputs.digest()):
            run.failures.append("set-up: repeating the set-up built different inputs")
        input_digest = inputs.digest()
    families, _ = run.measure(inputs, run.args.seconds, contextlib.nullcontext)
    run.verify(families)
    stats, info = end_to_end(run, families, setup_times)
    return stats, info, _digests(inputs, families), {}


def measure_traced(run, perfplan):
    inputs_a = run.capped("set-up", run.setup, contextlib.nullcontext)
    families_a, rounds = run.measure(inputs_a, run.args.seconds / 2, contextlib.nullcontext)
    layers = [perfplan] + [sys.modules[f"perfplan.{m}"] for m in LAYERS]
    first_probe = len(run.clock.factors)
    with spans.Tracer(layers) as tracer:
        inputs_b = run.capped("traced set-up", run.setup, tracer.span)
        families_b, _ = run.measure(inputs_b, run.args.seconds / 2, tracer.span, rounds)
    factor_b = statistics.median(run.clock.factors[first_probe:])
    run.verify(families_a)
    run.collect(families_b)
    digests = _digests(inputs_a, families_a)
    for key, value in _digests(inputs_b, families_b).items():
        if value != digests[key]:
            run.failures.append(f"trace: {key} outputs differ between the untraced and traced runs")
    overhead = 100 * (sum(f.busy for f in families_b) / sum(f.busy for f in families_a) - 1)
    values, idx = per_layer(families_a, tracer.spans, factor_b, inputs_a, overhead)
    extra = {"moves": {name: moves_for(name) for name in values}, "span_summary": idx.summary()}
    return {name: {"value": v} for name, v in values.items()}, {}, digests, (extra, tracer.spans)


LAYERS = ("gridworld", "planner", "assignment", "executor", "metrics", "harness", "cli")


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark one perfplan workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        sys.exit(f"error: {bench_file} is missing")
    listed = json.loads(bench_file.read_text())["per_layer" if args.trace else "end_to_end"]
    perfplan, import_s = _load_perfplan()
    global workloads  # importable only once perfplan's source is on sys.path
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    run = Run(args, wl, import_s)
    stats, info, digests, extra = {}, {}, {}, None
    try:
        if args.trace:
            stats, info, digests, extra = measure_traced(run, perfplan)
        else:
            stats, info, digests, _ = measure_untraced(run)
    except (Aborted, OpTimeout) as exc:
        if isinstance(exc, OpTimeout):
            run.failures.append(f"timeout: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        stats = {}
    except Exception as exc:  # the run must still end with a result line and exit 1
        traceback.print_exc()
        run.failures.append(f"benchmark: {type(exc).__name__}: {exc}")
        stats = {}

    metrics_out = {}
    for metric in listed:
        name = metric["name"]
        if name in stats:
            metrics_out[name] = {"value": stats[name]["value"], "unit": metric["unit"]}
        elif stats:
            run.failures.append(f"benchmark: metric {name} was not computed")
    failed = min(len(run.failures), max(run.attempted, 1))
    result = {"correct": not run.failures, "attempted": max(run.attempted, 1),
              "failed": failed, "metrics": metrics_out}

    for metric in listed:
        name = metric["name"]
        if name not in stats:
            continue
        st = stats[name]
        tail = "  ".join(f"{k}={st[k]:.4f}" if isinstance(st[k], float) else f"{k}={st[k]}"
                         for k in ("p50", "p99", "p90", "n") if k in st)
        note = f"  [{moves_for(name)}]" if args.trace else ""
        print(f"{wl.name:<16} {name:<36} {st['value']:>14.6g} {metric['unit']:<6} {tail}{note}")
    for name, value in info.items():
        print(f"{wl.name:<16} {name:<36} {value:>14.6g} (informational)")
    for key, value in digests.items():
        print(f"{wl.name:<16} digest.{key:<29} {value[:16]}")
    for message in run.failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)

    _write_results(args, wl, perfplan, result, stats, info, digests, run.failures, extra)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _write_results(args, wl, perfplan, result, stats, info, digests, failures, extra):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    doc = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "params": {"grid": list(wl.grid), "pairs": wl.pairs, "dispatch_n": wl.dispatch_n,
                   "replay_robots": wl.replay_robots, "waypoints": workloads.WAYPOINTS,
                   "ops_per_round": dict(zip(("ladder", "fleet", "cli"), wl.round)),
                   "ladder_rates": [str(r) for r in workloads.LADDER_RATES],
                   "replay_rates": [str(r) for r in workloads.REPLAY_RATES],
                   "mode": workloads.MODE, "cli_scenarios": list(workloads.BUILTINS)},
        "provenance": {"perfplan_version": perfplan.__version__, "git_commit": _git_commit(),
                       "python": platform.python_version(),
                       "implementation": platform.python_implementation(),
                       "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0))},
        **result, "failures": failures, "stats": stats, "informational": info, "digests": digests,
    }
    if extra:
        doc.update(extra[0])
        with open(out_dir / f"{stem}-spans.csv", "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in extra[1]:
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f}\n")
    (out_dir / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
