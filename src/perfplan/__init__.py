"""Grid-world multi-robot path planning with a loop-perforated A*.

The package plans robot paths exactly and under deterministic loop
perforation, assigns tasks with the Hungarian method, replays plans on a
shared clock to detect inter-robot collisions, and benchmarks the
speed/quality trade-off across perforation rates.
"""

__version__ = "0.1.0"

from .assignment import Assignment, CostMatrix, build_cost_matrix, hungarian, unreachable_sentinel
from .executor import (
    EDGE,
    VERTEX,
    CollisionEvent,
    SimulationReport,
    Timeline,
    detect_collisions,
    path_to_timeline,
    simulate,
)
from .gridworld import (
    BUILTIN_NAMES,
    Cell,
    GridMap,
    RobotTask,
    Scenario,
    ScenarioError,
    builtin_scenario,
    component_labels,
    load_scenario,
    random_endpoints,
    render_scenario,
)
from .harness import (
    DEFAULT_CASES,
    DEFAULT_RATE_LADDER,
    DEFAULT_SEED,
    DEFAULT_STUDY_RATES,
    DEFAULT_TRIALS,
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
from .metrics import (
    SKIP_POP_COST,
    CaseRecord,
    PathErrorStats,
    aggregate_error,
    case_error_pct,
    perforated_cost,
    speedup_proxy,
)
from .planner import (
    FOUND,
    MODES,
    MODULO,
    NO_PERFORATION,
    NOT_FOUND,
    RANDOM,
    TRUNCATION,
    PerforationSpec,
    PlanOutcome,
    astar_exact,
    astar_perforated,
    manhattan,
    perforation_schedule,
    plan_multi_leg,
)

__all__ = [
    "Assignment", "CostMatrix", "build_cost_matrix", "hungarian", "unreachable_sentinel",
    "EDGE", "VERTEX", "CollisionEvent", "SimulationReport", "Timeline",
    "detect_collisions", "path_to_timeline", "simulate",
    "BUILTIN_NAMES", "Cell", "GridMap", "RobotTask", "Scenario", "ScenarioError",
    "builtin_scenario", "component_labels", "load_scenario", "random_endpoints",
    "render_scenario",
    "DEFAULT_CASES", "DEFAULT_RATE_LADDER", "DEFAULT_SEED", "DEFAULT_STUDY_RATES",
    "DEFAULT_TRIALS", "CollisionRow", "SweepRow", "collision_study", "emit_reports",
    "parse_collision_csv", "parse_rate", "parse_rate_list", "parse_sweep_csv", "sweep",
    "SKIP_POP_COST", "CaseRecord", "PathErrorStats", "aggregate_error",
    "case_error_pct", "perforated_cost", "speedup_proxy",
    "FOUND", "MODES", "MODULO", "NO_PERFORATION", "NOT_FOUND", "RANDOM",
    "TRUNCATION", "PerforationSpec", "PlanOutcome", "astar_exact",
    "astar_perforated", "manhattan", "perforation_schedule", "plan_multi_leg",
]
