"""Seeded inputs and the three operation families every workload runs.

A workload is a grid plus sizes. Each run builds its inputs from the seed,
then drives three families of operations against perfplan's public
functions, one call at a time on one thread (a closed loop with a single
client):

- ladder: one endpoint pair searched at rates 0, 1/2, 3/4 and 22/25;
- fleet:  alternately one dispatch (cost matrix plus Hungarian) and one
          replay (`simulate` at rates 0 and 3/4);
- cli:    `perfplan.cli.main` in-process on the built-in scenarios.

Workloads differ in their grid and in how many operations of each family
a round holds, so each stresses a different layer. Every output is
checked as it comes back; the first pass over each input is checked
against the oracles, later passes against the first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from perfplan import assignment, cli, executor, gridworld, harness, metrics, planner

import oracles

LADDER_RATES = (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(22, 25))
REPLAY_RATES = (Fraction(0), Fraction(3, 4))
MODE = planner.MODULO
WAYPOINTS = 3
WARMUP_PAIRS = 10
BUILTINS = ("warehouse", "room")


def rate_token(rate: Fraction) -> str:
    return f"r{rate.numerator}" if rate.denominator == 1 else f"r{rate.numerator}_{rate.denominator}"


@dataclass(frozen=True)
class Workload:
    name: str
    grid: tuple            # ("tiled-warehouse", nx, ny), ("clutter", w, h, pct, map seed) or ("builtin", name)
    pairs: int             # ladder endpoint pairs; >= 1000 so each rate has a p99
    dispatch_n: int        # robots and task cells per dispatch
    replay_robots: int     # robots per replayed scenario, each with WAYPOINTS waypoints
    problems: int          # distinct dispatch and replay problems, cycled through
    round: tuple           # operations per round for (ladder, fleet, cli)


# The map is part of the workload and the seed draws the queries on it: a
# fresh random clutter map per seed moved the 22/25 found share by a third
# between seeds. Rounds interleave the families, so every metric samples the
# whole run and a slow spell of the machine lands on all of them alike; the
# ops per round set each family's share of the time. Where dispatch and
# replay are not the point, many small problems keep their medians from
# hanging on a few robot placements.
WORKLOADS = {w.name: w for w in (
    Workload("warehouse-ladder", ("tiled-warehouse", 6, 6), 2000, 6, 8, 32, (200, 6, 2)),
    Workload("clutter-ladder", ("clutter", 120, 120, 25, 1), 1000, 6, 8, 32, (125, 4, 2)),
    Workload("fleet", ("tiled-warehouse", 4, 4), 2000, 32, 96, 8, (500, 2, 2)),
    Workload("cli-builtins", ("builtin", "warehouse"), 2000, 6, 8, 64, (200, 6, 3)),
)}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_grid(spec):
    kind = spec[0]
    if kind == "builtin":
        return gridworld.builtin_scenario(spec[1]).grid
    if kind == "tiled-warehouse":
        tile = gridworld.builtin_scenario("warehouse").grid
        _, nx, ny = spec
        blocked = [(x + i * tile.width, y + j * tile.height)
                   for i in range(nx) for j in range(ny) for x, y in tile.blocked]
        return gridworld.GridMap(tile.width * nx, tile.height * ny, frozenset(blocked))
    _, width, height, pct, map_seed = spec
    rng = random.Random(map_seed)
    blocked = [(x, y) for y in range(height) for x in range(width) if rng.random() * 100 < pct]
    return gridworld.GridMap(width, height, frozenset(blocked))


@dataclass
class Inputs:
    grid: object
    pairs: list
    dispatches: list       # (robot cells, task cells) per dispatch problem
    replays: list          # Scenario per replay problem
    accept_ratio: float    # share of random_endpoints draws that are accepted

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr((self.grid.width, self.grid.height, sorted(self.grid.blocked))).encode())
        h.update(repr((self.pairs, self.dispatches, [r.tasks for r in self.replays])).encode())
        return h.hexdigest()


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Map generation, endpoint and task sampling: the set-up a run pays once."""
    grid = make_grid(workload.grid)
    labels = gridworld.component_labels(grid)
    sizes: dict = {}
    for label in labels.values():
        sizes[label] = sizes.get(label, 0) + 1
    n_free = len(labels)
    accept = sum(n * (n - 1) for n in sizes.values()) / (n_free * n_free)
    pairs = gridworld.random_endpoints(grid, seed, workload.pairs)

    biggest = max(sizes, key=lambda label: (sizes[label], -label))
    main = sorted(cell for cell, label in labels.items() if label == biggest)
    rng = random.Random(seed * 7919 + 1)
    dispatches = [(rng.sample(main, workload.dispatch_n), rng.sample(main, workload.dispatch_n))
                  for _ in range(workload.problems)]
    replays = []
    for p in range(workload.problems):
        tasks = []
        for rid in range(1, workload.replay_robots + 1):
            stops = rng.sample(main, WAYPOINTS + 2)
            tasks.append(gridworld.RobotTask(rid, stops[0], stops[-1], tuple(stops[1:-1])))
        replays.append(gridworld.Scenario(f"{workload.name}-replay-{p}", grid, tuple(tasks)))
    return Inputs(grid, pairs, dispatches, replays, accept)


def warm_up(inputs: Inputs) -> None:
    specs = [planner.PerforationSpec.from_rate(r, MODE) for r in LADDER_RATES[1:]]
    for s, g in inputs.pairs[:WARMUP_PAIRS]:
        planner.astar_exact(inputs.grid, s, g)
        for spec in specs:
            planner.astar_perforated(inputs.grid, s, g, spec)


# ---------------------------------------------------------------------------
# Operation families
# ---------------------------------------------------------------------------

class Family:
    """Shared bookkeeping: timed samples, failures and a digest of outputs."""

    def __init__(self, inputs: Inputs, span, clock):
        self.inputs = inputs
        self.span = span          # span(name) -> context manager; a no-op when untraced
        self.clock = clock        # scales wall time to the reference speed
        self.busy = 0.0           # scaled seconds spent inside timed calls
        self.attempted = 0
        self.failures: list = []
        self.hash = hashlib.sha256()

    def fail(self, message: str) -> None:
        self.failures.append(f"{type(self).__name__.lower()}: {message}")

    def timed(self, name, fn, *args):
        """Run one operation under a span; returns (result, scaled seconds)."""
        self.attempted += 1
        with self.span(name):
            t0 = time.perf_counter()
            result = fn(*args)
            t1 = time.perf_counter()
        dt = self.clock.scaled(t0, t1)
        self.busy += dt
        return result, dt

    def digest(self) -> str:
        return self.hash.hexdigest()


def _path_bytes(path) -> bytes:
    return array("i", chain.from_iterable(path)).tobytes()


class Ladder(Family):
    """One op = one endpoint pair at every ladder rate, exact first."""

    def __init__(self, inputs, span, clock):
        super().__init__(inputs, span, clock)
        self.specs = [None] + [planner.PerforationSpec.from_rate(r, MODE) for r in LADDER_RATES[1:]]
        self.names = [f"ladder.{rate_token(r)}" for r in LADDER_RATES]
        self.first = []        # per pair: per rate (found, edges, full iterations, perforated ones)
        self.pair_times = []   # per op: (pair index, per-rate seconds)

    def op(self, i: int) -> None:
        k = i % len(self.inputs.pairs)
        grid = self.inputs.grid
        s, g = self.inputs.pairs[k]
        row, secs = [], []
        for r, spec in enumerate(self.specs):
            if spec is None:
                out, dt = self.timed(self.names[r], planner.astar_exact, grid, s, g)
            else:
                out, dt = self.timed(self.names[r], planner.astar_perforated, grid, s, g, spec)
            secs.append(dt)
            row.append((out.found, out.edges if out.found else None, out.expansions, out.skipped))
            if i < len(self.inputs.pairs):
                self._check_first(k, r, out, row)
        self.pair_times.append((k, tuple(secs)))
        if i < len(self.inputs.pairs):
            self.first.append(tuple(row))
        elif tuple(row) != self.first[k]:
            self.fail(f"pair {k} changed between passes: {self.first[k]} then {tuple(row)}")

    def _check_first(self, k, r, out, row) -> None:
        s, g = self.inputs.pairs[k]
        self.hash.update(repr((k, r, out.status, out.expansions, out.skipped)).encode())
        if not out.found:
            if r == 0:
                self.fail(f"pair {k}: exact search found no path between reachable cells")
            return
        self.hash.update(_path_bytes(out.path))
        problem = oracles.path_problem(self.inputs.grid, out.path, s, g)
        if problem:
            self.fail(f"pair {k} at {LADDER_RATES[r]}: {problem}")
        elif r > 0 and row[0][1] is not None and out.edges < row[0][1]:
            self.fail(f"pair {k} at {LADDER_RATES[r]}: {out.edges} edges beats exact {row[0][1]}")

    def verify(self) -> None:
        """After the timed window: rate-0 lengths against BFS distances, and
        e_p at the top rate against `metrics.aggregate_error`."""
        self.e_p = self._path_excess_pct(len(LADDER_RATES) - 1)
        width = self.inputs.grid.width
        adj = oracles.adjacency(self.inputs.grid)
        for k, row in enumerate(self.first):
            (sx, sy), (gx, gy) = self.inputs.pairs[k]
            if row[0][1] == abs(sx - gx) + abs(sy - gy):
                continue  # no path is shorter than the Manhattan distance
            goal = gy * width + gx
            dist = oracles.bfs_distances(adj, sy * width + sx, goal)[goal]
            if row[0][1] != dist:
                self.fail(f"pair {k}: exact path has {row[0][1]} edges, BFS distance is {dist}")

    def _path_excess_pct(self, r: int) -> float:
        """e_p: mean percentage length increase over the searches that found a path."""
        found = [(row[r][1], row[0][1]) for row in self.first if row[r][0]]
        if not found:
            return 0.0
        ours = sum(100 * (a - o) / o for a, o in found) / len(found)
        try:
            records = [metrics.CaseRecord(k, row[0][1], row[r][1] if row[r][0] else None, row[0][2],
                                          row[r][2], row[r][3]) for k, row in enumerate(self.first)]
            theirs = metrics.aggregate_error(records).e_p
        except ValueError as exc:
            self.fail(f"aggregate_error rejects the ladder's records: {exc}")
            return ours
        if abs(ours - theirs) > 1e-9 * max(1.0, abs(ours)):
            self.fail(f"aggregate_error gives e_p {theirs}, the benchmark {ours}")
        return ours


class Fleet(Family):
    """Even ops dispatch (cost matrix + Hungarian), odd ops replay a scenario;
    both cycle through the workload's problems."""

    def __init__(self, inputs, span, clock):
        super().__init__(inputs, span, clock)
        self.specs = [planner.PerforationSpec.from_rate(r, MODE) for r in REPLAY_RATES]
        self.dispatch_times: list = []
        self.replay_times: list = []     # seconds per simulate call, averaged over REPLAY_RATES
        self.replay_shape: list = []     # per first replay and rate: (robots replayed, ticks, events)
        self.first: dict = {}            # ("dispatch" | "replay", problem) -> first outputs
        self.adj = oracles.adjacency(inputs.grid)

    def op(self, i: int) -> None:
        kind = ("dispatch", "replay")[i % 2]
        problem = i // 2 % len(self.inputs.dispatches)
        got = self._dispatch(problem) if kind == "dispatch" else self._replay(problem)
        if (kind, problem) not in self.first:
            self.first[kind, problem] = got
        elif got != self.first[kind, problem]:
            self.fail(f"{kind} {problem} changed between repeats")

    def _dispatch(self, problem):
        grid = self.inputs.grid
        robots, tasks = self.inputs.dispatches[problem]

        def dispatch():
            matrix = assignment.build_cost_matrix(grid, robots, tasks)
            return matrix, assignment.hungarian(matrix)

        (matrix, result), dt = self.timed("fleet.dispatch", dispatch)
        self.dispatch_times.append(dt)
        got = (matrix.costs, result.mapping, result.total_cost)
        if ("dispatch", problem) not in self.first:
            self.hash.update(repr(got).encode())
            self._check_dispatch(robots, tasks, matrix, result)
        return got

    def _check_dispatch(self, robots, tasks, matrix, result) -> None:
        width = self.inputs.grid.width
        for i, (x, y) in enumerate(robots):
            dist = oracles.bfs_distances(self.adj, y * width + x)
            want = tuple(dist[ty * width + tx] for tx, ty in tasks)
            if matrix.costs[i] != want:
                self.fail(f"cost row {i} is {matrix.costs[i]}, BFS gives {want}")
        total = sum(matrix.costs[i][j] for i, j in enumerate(result.mapping))
        best = oracles.min_assignment_total(matrix.costs)
        if total != result.total_cost or total != best:
            self.fail(f"hungarian total {result.total_cost} (mapping sums to {total}), optimum is {best}")

    def _replay(self, problem):
        scenario = self.inputs.replays[problem]
        reports, total = [], 0.0
        for rate, spec in zip(REPLAY_RATES, self.specs):
            report, dt = self.timed(f"fleet.replay.{rate_token(rate)}", executor.simulate, scenario, spec)
            reports.append(report)
            total += dt
        self.replay_times.append(total / len(reports))
        if ("replay", problem) not in self.first:
            for rate, report in zip(REPLAY_RATES, reports):
                self._check_replay(scenario, rate, report)
        return tuple((r.collisions, r.makespan, r.failed_robots) for r in reports)

    def _check_replay(self, scenario, rate, report) -> None:
        self.hash.update(repr((rate, report.collisions, report.makespan, report.failed_robots)).encode())
        if rate == 0 and report.failed_robots:
            self.fail(f"exact replay failed robots {report.failed_robots}")
        for task in scenario.tasks:
            out = report.outcomes[task.robot_id]
            if not out.found:
                continue
            problem = oracles.path_problem(scenario.grid, out.path, task.start, task.goal)
            stops = iter(task.waypoints)
            want = next(stops, None)
            for cell in out.path:
                if want is not None and cell == want:
                    want = next(stops, None)
            if problem or want is not None:
                self.fail(f"robot {task.robot_id} at {rate}: {problem or 'misses a waypoint'}")
        timelines = {tl.robot_id: tl.positions for tl in report.timelines}
        want = oracles.collision_events(timelines)
        got = [(e.t, e.kind, e.robots, tuple(tuple(c) for c in e.cells)) for e in report.collisions]
        if got != want:
            self.fail(f"detect_collisions reports {len(got)} events at {rate}, the hash detector {len(want)}")
        self.replay_shape.append((len(report.timelines), report.makespan + 1, len(report.collisions)))


def _cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _without_wall_column(csv_text: str) -> str:
    # mean_speedup_wall (third column) is the only clock-dependent sweep field.
    return "\n".join(",".join(f for n, f in enumerate(line.split(",")) if n != 2)
                     for line in csv_text.splitlines())


class Cli(Family):
    """Ops cycle through sweep, collisions and a light pass, each on both built-ins."""

    KINDS = ("sweep", "collisions", "light")

    def __init__(self, inputs, span, clock):
        super().__init__(inputs, span, clock)
        self.times = {kind: [] for kind in self.KINDS}
        self.first: dict = {}
        self.scenarios = {name: gridworld.builtin_scenario(name) for name in BUILTINS}
        self.commands = {"sweep": [["sweep", n] for n in BUILTINS],
                         "collisions": [["collisions", n] for n in BUILTINS],
                         "light": []}
        for name, scen in self.scenarios.items():
            goals = ";".join(f"{t.goal.x},{t.goal.y}" for t in reversed(scen.tasks))
            self.commands["light"] += [["plan", name, "--robot", str(scen.tasks[0].robot_id)],
                                       ["simulate", name], ["assign", name, "--tasks", goals]]

    def op(self, i: int) -> None:
        kind = self.KINDS[i % len(self.KINDS)]

        def run_all():
            return [_cli(argv) for argv in self.commands[kind]]

        results, dt = self.timed(f"cli.{kind}", run_all)
        self.times[kind].append(dt)
        outputs = []
        for argv, (code, out, err) in zip(self.commands[kind], results):
            if code != 0:
                self.fail(f"perfplan {' '.join(argv)} exited {code}: {err.strip()}")
            outputs.append(_without_wall_column(out) if kind == "sweep" else out)
        if kind not in self.first:
            self.first[kind] = outputs
            self.hash.update(repr((kind, outputs)).encode())
            self._check_first(kind, outputs)
        elif outputs != self.first[kind]:
            self.fail(f"{kind} output changed between repeats")

    def _check_first(self, kind, outputs) -> None:
        if kind == "sweep":
            for text in outputs:
                if len(text.splitlines()) != 1 + len(harness.DEFAULT_RATE_LADDER):
                    self.fail(f"sweep printed {len(text.splitlines())} lines")
        elif kind == "collisions":
            for text in outputs:
                if len(text.splitlines()) != 1 + len(harness.DEFAULT_STUDY_RATES):
                    self.fail(f"collisions printed {len(text.splitlines())} lines")
        else:
            for argv, text in zip(self.commands[kind], outputs):
                if argv[0] == "assign":
                    self._check_assign(self.scenarios[argv[1]], argv[3], text)

    def _check_assign(self, scenario, tasks_arg, text) -> None:
        width = scenario.grid.width
        adj = oracles.adjacency(scenario.grid)
        tasks = [tuple(int(v) for v in tok.split(",")) for tok in tasks_arg.split(";")]
        costs = []
        for task in sorted(scenario.tasks, key=lambda t: t.robot_id):
            dist = oracles.bfs_distances(adj, task.start.y * width + task.start.x)
            costs.append([dist[y * width + x] for x, y in tasks])
        rows = [line.split(",") for line in text.splitlines()[1:]]
        total = sum(int(row[2]) for row in rows)
        best = oracles.min_assignment_total(costs)
        if total != best:
            self.fail(f"assign on {scenario.name} totals {total}, optimum is {best}")


FAMILIES = (Ladder, Fleet, Cli)
