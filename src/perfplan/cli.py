"""Command-line front end: plan, simulate, sweep, collisions, assign.

Exit codes: 0 on success, 1 on usage or input errors, 2 when `plan` finds no
path (planning failure is an expected outcome at high perforation rates, so
it gets its own code instead of being lumped in with bad input).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .assignment import build_cost_matrix, hungarian, unreachable_sentinel
from .executor import simulate
from .gridworld import (BUILTIN_NAMES, Scenario, ScenarioError, _parse_cell, _render_grid, builtin_scenario,
                        load_scenario)
from .harness import (
    DEFAULT_CASES,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    collision_study,
    emit_reports,
    parse_rate,
    parse_rate_list,
    sweep,
)
from .planner import MODULO, RANDOM, TRUNCATION, PerforationSpec, plan_multi_leg

_MODE_NAMES = {"modulo": MODULO, "trunc": TRUNCATION, "random": RANDOM}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; this CLI reserves 2 for
    # planning failure, so usage problems are rerouted through _UsageError.
    def error(self, message):
        raise _UsageError(message)


def _load_scenario(ref: str) -> Scenario:
    if ref in BUILTIN_NAMES:
        return builtin_scenario(ref)
    path = Path(ref)
    if not path.exists():
        raise ValueError(f"scenario {ref!r} is neither a built-in {BUILTIN_NAMES} nor a file")
    return load_scenario(path.read_text(), name=path.stem)


def _make_spec(args) -> PerforationSpec:
    return PerforationSpec.from_rate(parse_rate(args.rate), _MODE_NAMES[args.mode], seed=args.seed)


def _cells_token(cells) -> str:
    return "|".join(f"{c.x}:{c.y}" for c in cells)


def _cmd_plan(args) -> int:
    scenario = _load_scenario(args.scenario)
    task = scenario.task_for(args.robot)
    outcome = plan_multi_leg(scenario.grid, task, _make_spec(args))
    if not outcome.found:
        print(f"robot {args.robot}: no path (leg {outcome.failed_leg} failed, "
              f"{outcome.expansions} expansions, {outcome.skipped} skipped)")
        return 2
    print(f"robot {args.robot}: {outcome.edges} edges, "
          f"{outcome.expansions} expansions, {outcome.skipped} skipped")
    print("path: " + " ".join(f"({c})" for c in outcome.path))
    marks = {c: "*" for c in outcome.path}
    for wp in task.waypoints:
        marks[wp] = "V"
    marks[task.start] = "S"
    marks[task.goal] = "G"
    print(_render_grid(scenario.grid, marks))
    return 0


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario)
    report = simulate(scenario, _make_spec(args))
    trace = None
    if args.trace:
        lines = ["t,robot_id,x,y"]
        for t in range(report.makespan + 1):
            lines += [f"{t},{tl.robot_id},{tl.positions[t]}" for tl in report.timelines]
        trace = "\n".join(lines) + "\n"
        if args.trace != "-":
            # Written before the report, so a failed write leaves stdout empty.
            Path(args.trace).write_text(trace)
    for rid, out in report.outcomes.items():
        if out.found:
            print(f"robot {rid}: {out.edges} edges, {out.expansions} expansions, "
                  f"{out.skipped} skipped")
        else:
            print(f"robot {rid}: planning failed (leg {out.failed_leg})")
    print(f"makespan: {report.makespan}")
    if report.collisions:
        print("collisions (t,kind,robot_a,robot_b,cells):")
        for ev in report.collisions:
            print(f"{ev.t},{ev.kind},{ev.robots[0]},{ev.robots[1]},{_cells_token(ev.cells)}")
    else:
        print("collisions: none")

    # Ids are unique and each timeline is deduplicated: a marked cell is another robot's.
    marks: dict = {}
    for tl in report.timelines:
        digit = str(tl.robot_id)[-1]
        for cell in dict.fromkeys(tl.positions):
            marks[cell] = "+" if cell in marks else digit
    for ev in report.collisions:
        for cell in ev.cells:
            marks[cell] = "X"
    print(_render_grid(scenario.grid, marks))
    if args.trace == "-":
        sys.stdout.write(trace)
    return 0


def _emit(rows, args) -> int:
    text = emit_reports(rows, format=args.format)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args.scenario)
    rates = parse_rate_list(args.rates) if args.rates is not None else None
    rows = sweep(scenario.grid, rates=rates, n_cases=args.cases, seed=args.seed)
    return _emit(rows, args)


def _cmd_collisions(args) -> int:
    scenario = _load_scenario(args.scenario)
    rates = parse_rate_list(args.rates) if args.rates is not None else None
    rows = collision_study(scenario, rates=rates, n_trials=args.trials, seed=args.seed)
    return _emit(rows, args)


def _cmd_assign(args) -> int:
    scenario = _load_scenario(args.scenario)
    try:
        task_cells = [_parse_cell(tok) for tok in args.tasks.split(";")]
    except ValueError as exc:
        raise ValueError(f"cannot parse --tasks: {exc}") from None
    if len(task_cells) != len(scenario.tasks):
        raise ValueError(f"{len(scenario.tasks)} robots but {len(task_cells)} tasks")
    matrix = build_cost_matrix(scenario.grid, [t.start for t in scenario.tasks], task_cells)
    result = hungarian(matrix)
    sentinel = unreachable_sentinel(scenario.grid)
    lines = ["robot_id,task_index,cost"]
    for i, robot in enumerate(scenario.tasks):
        j = result.mapping[i]
        if matrix.costs[i][j] == sentinel:
            raise ValueError(f"robot {robot.robot_id} cannot reach task {j} at {task_cells[j]}")
        lines.append(f"{robot.robot_id},{j},{matrix.costs[i][j]}")
    print("\n".join(lines))
    return 0


def _add_spec_flags(sub):
    sub.add_argument("--rate", default="0", help="perforation rate: k/n or decimal (default 0)")
    sub.add_argument("--mode", choices=sorted(_MODE_NAMES), default="modulo")
    sub.add_argument("--seed", type=int, default=0, help="seed for random-mode schedules")


def _add_report_flags(sub, default_rates: str):
    sub.add_argument("scenario")
    sub.add_argument("--rates", help=f"comma-separated rates (default: {default_rates})")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--out", help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("csv", "table"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call, so a caller may change it; `main` keeps its own."""
    parser = _Parser(prog="perfplan",
                     description="Grid-world planning with loop-perforated A*.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("plan", help="plan one robot's task and render the path")
    p.add_argument("scenario", help=f"built-in {BUILTIN_NAMES} or a scenario file")
    p.add_argument("--robot", type=int, required=True)
    _add_spec_flags(p)
    p.set_defaults(func=_cmd_plan)

    p = subs.add_parser("simulate", help="plan all robots and report collisions")
    p.add_argument("scenario")
    _add_spec_flags(p)
    p.add_argument("--trace", metavar="FILE",
                   help="write per-tick positions as CSV ('-' for stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("sweep", help="rate-ladder benchmark on one grid")
    _add_report_flags(p, "the ten-rate ladder")
    p.add_argument("--cases", type=int, default=DEFAULT_CASES)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("collisions", help="collision study over seeded task variations")
    _add_report_flags(p, "3/5,3/4,4/5")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.set_defaults(func=_cmd_collisions)

    p = subs.add_parser("assign", help="Hungarian robot-to-task assignment")
    p.add_argument("scenario")
    p.add_argument("--tasks", required=True, help="task cells as 'x,y;x,y;...'")
    p.set_defaults(func=_cmd_assign)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # `main`'s one parser per process. Building one costs about a millisecond,
    # more than a light command's own work, and a parser can be reused
    # because each parse_args call fills a fresh Namespace.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
