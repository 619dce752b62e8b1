"""Occupancy-grid world model: maps, robot tasks, scenario files.

Coordinates are 0-based with x as the column and y as the row; row y=0 is
the first map line of a scenario file. Motion is 4-connected (no diagonals),
one cell per time unit. All types are immutable after construction.

Scenario file format (line-oriented text):

    map <width> <height>
    <height> rows of exactly <width> chars, '.' = free, '#' = blocked
    robot <id> start <x>,<y> [via <x>,<y>[;<x>,<y>...]] goal <x>,<y>

'#'-prefixed full lines outside the map block are comments; blank lines
outside the map block are ignored.
"""

from __future__ import annotations

import functools
import io
import random
import re
import string
from dataclasses import dataclass
from importlib import resources
from itertools import compress, islice
from operator import sub
from typing import Iterable, NamedTuple


class Cell(NamedTuple):
    x: int
    y: int

    def __str__(self):
        """The text form of scenario files and messages; `_parse_cell` reads it back."""
        return f"{self.x},{self.y}"


def _as_cell(value) -> Cell:
    """`value`, an x, y pair, as a `Cell`; ValueError naming `value` when it
    is no pair (another length, or not iterable). Range and type of the
    coordinates are `GridMap.in_bounds`'s to judge."""
    try:
        return Cell(*value)
    except TypeError:
        raise ValueError(f"cell {value!r} is not an x,y pair") from None


BUILTIN_NAMES = ("warehouse", "room")

_FREE_CHAR = "."
_BLOCKED_CHAR = "#"


class ScenarioError(ValueError):
    """Malformed scenario text; `line` is the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class GridMap:
    """Rectangular occupancy grid: `blocked` holds the obstacle cells.

    `_mask` (not a field, so equality, hashing and repr ignore it) is the
    occupancy that the cell queries, the component flood and the search read:
    `bytes` over the grid padded by a one-cell border, with cell (x, y) at
    `(y + 1) * (width + 2) + x + 1`, 1 where the cell is free and 0 where it
    is blocked or on the border. Only the map turns cells into these indices
    (`_free_index`, `_free_indices`, by `_rows`, each row's first index).

    `_cells` (not a field either) has one slot per mask index, `None` until
    `_cell` first makes that index's `Cell`; every later request gets the
    same object.
    """

    width: int
    height: int
    blocked: frozenset

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.width}x{self.height}")
        cells = frozenset(map(_as_cell, self.blocked))
        object.__setattr__(self, "blocked", cells)
        for cell in cells:
            if not self.in_bounds(cell):
                raise ValueError(f"blocked cell {cell} out of range for {self.width}x{self.height} grid")
        if len(cells) >= self.width * self.height:
            raise ValueError("grid has no free cell")
        w = self.width + 2
        rows = list(range(w + 1, (self.height + 1) * w, w))
        mask = bytearray(w * (self.height + 2))
        for i in rows:
            mask[i:i + self.width] = b"\x01" * self.width
        for x, y in cells:
            mask[rows[y] + x] = 0
        object.__setattr__(self, "_mask", bytes(mask))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_cells", [None] * len(mask))

    def _cell(self, i: int) -> Cell:
        """The map's one `Cell` at padded mask index `i`, made on first request."""
        cell = self._cells[i]
        if cell is None:
            w = self.width + 2
            cell = self._cells[i] = Cell(i % w - 1, i // w - 1)
        return cell

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return isinstance(x, int) and isinstance(y, int) and 0 <= x < self.width and 0 <= y < self.height

    def is_free(self, cell: Cell) -> bool:
        return self._free_index(cell) != 0

    def _free_index(self, cell: Cell) -> int:
        """The padded mask index of `cell` if it is on the grid and free, else
        0, a border index. The range test comes first: the padded index of a
        cell two or more columns off the grid lands on a cell of another row."""
        x, y = cell
        return i if self.in_bounds(cell) and self._mask[i := self._rows[y] + x] else 0

    def _free_indices(self, cells) -> list:
        """`_free_index` of each of `cells` that is on the grid and free, in
        one pass; TypeError on a coordinate that is no int yet in range."""
        width, height, mask, rows = self.width, self.height, self._mask, self._rows
        return [i for x, y in cells if 0 <= x < width and 0 <= y < height and mask[i := rows[y] + x]]

    def _first_bad_step(self, indices) -> int:
        """The first tick t at which padded indices[t] - indices[t - 1] is
        not 0, +-1 or +-(width + 2), a wait or a move to a 4-neighbor, else
        0. The border column makes the row-wrap step differ by 3."""
        w = self.width + 2
        steps = {0, 1, -1, w, -w}
        if steps.issuperset(map(sub, islice(indices, 1, None), indices)):
            return 0
        return next(t for t, step in enumerate(map(sub, islice(indices, 1, None), indices), 1) if step not in steps)

    def neighbors(self, cell: Cell) -> list[Cell]:
        """Free 4-neighbors of an in-bounds cell, in row-major order."""
        if not self.in_bounds(cell):
            raise ValueError(f"cell {cell} out of range for {self.width}x{self.height} grid")
        x, y = cell
        w = self.width + 2
        i = self._rows[y] + x
        mask = self._mask
        return [self._cell(k) for k in (i - w, i - 1, i + 1, i + w) if mask[k]]

    def free_cells(self) -> list[Cell]:
        """All free cells in row-major order."""
        mask = self._mask
        return list(map(self._cell, compress(range(len(mask)), mask)))


@dataclass(frozen=True)
class RobotTask:
    """Start cell, optional ordered waypoints, and a goal cell for one robot."""

    robot_id: int
    start: Cell
    goal: Cell
    waypoints: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "start", _as_cell(self.start))
        object.__setattr__(self, "goal", _as_cell(self.goal))
        object.__setattr__(self, "waypoints", tuple(map(_as_cell, self.waypoints)))

    def legs(self) -> list[tuple[Cell, Cell]]:
        """Consecutive (from, to) pairs: start -> waypoints... -> goal."""
        stops = [self.start, *self.waypoints, self.goal]
        return list(zip(stops, stops[1:]))


def _check_task(grid: GridMap, task: RobotTask, seen_ids: set) -> None:
    """Raise ValueError unless the task's id is not in `seen_ids` (it is then
    added), its every cell is in range and free, and it has start != goal or
    at least one waypoint."""
    rid = task.robot_id
    if rid in seen_ids:
        raise ValueError(f"duplicate robot id {rid}")
    seen_ids.add(rid)
    for label, cell in [("start", task.start), ("goal", task.goal)] + [
            ("waypoint", c) for c in task.waypoints]:
        if not grid.in_bounds(cell):
            raise ValueError(f"robot {rid} {label} {cell} is out of range")
        if not grid.is_free(cell):
            raise ValueError(f"robot {rid} {label} on blocked cell {cell}")
    if task.start == task.goal and not task.waypoints:
        raise ValueError(f"robot {rid} start equals goal without waypoints")


@dataclass(frozen=True)
class Scenario:
    """A grid and its robot tasks, held (and so planned and reported) in robot-id order."""

    name: str
    grid: GridMap
    tasks: tuple

    def __post_init__(self):
        # Stable, so of two tasks sharing an id the later one is flagged.
        object.__setattr__(self, "tasks", tuple(sorted(self.tasks, key=lambda t: t.robot_id)))
        seen = set()
        for task in self.tasks:
            _check_task(self.grid, task, seen)

    def task_for(self, robot_id: int) -> RobotTask:
        for task in self.tasks:
            if task.robot_id == robot_id:
                return task
        raise KeyError(f"no robot {robot_id} in scenario {self.name!r}")


# ---------------------------------------------------------------------------
# Scenario file parsing / rendering
# ---------------------------------------------------------------------------

# Only what `str(int)` writes: no sign but '-', no blanks, no '_', ASCII digits.
_INT = r"-?[0-9]+"
_INT_TEXT = re.compile(_INT)
_CELL_TEXT = re.compile(f"({_INT}),({_INT})")
# Fields are separated and surrounded by ASCII blanks only (string.whitespace);
# str.split() and str.strip() would also take '\x1c'-'\x1f', '\x85' and
# Unicode spaces.
_BLANKS = re.compile(r"\s+", re.ASCII)


def _parse_cell(token: str) -> Cell:
    """The cell written `<x>,<y>`, as `str(cell)` writes it; ValueError otherwise."""
    match = _CELL_TEXT.fullmatch(token)
    if match is None:
        raise ValueError(f"expected cell as <x>,<y>, got {token!r}")
    return Cell(int(match[1]), int(match[2]))


def _parse_robot_line(tokens: list[str]) -> RobotTask:
    rest = tokens[2:]
    if (len(rest) not in (4, 6) or rest[0] != "start" or rest[-2] != "goal"
            or not _INT_TEXT.fullmatch(tokens[1])):
        raise ValueError("expected 'robot <id> start <x>,<y> [via ...] goal <x>,<y>'")
    start, goal = _parse_cell(rest[1]), _parse_cell(rest[-1])
    waypoints = ()
    if len(rest) == 6:
        if rest[2] != "via":
            raise ValueError(f"expected 'via', got {rest[2]!r}")
        waypoints = tuple(_parse_cell(tok) for tok in rest[3].split(";"))
    return RobotTask(int(tokens[1]), start, goal, waypoints)


def load_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse scenario-file text into a validated Scenario.

    Lines end where `open()` ends them: at '\\n', '\\r\\n' or '\\r' only.
    Raises ScenarioError with a 1-based line number on malformed input.
    """
    lines = io.StringIO(text, newline=None).readlines()
    header_line = grid = None
    blocked = set()
    tasks, ids = [], set()
    for number, line in enumerate(lines, 1):
        try:
            if header_line and grid is None:
                # The map block is read verbatim: no comments or blank lines inside it.
                y, row = number - header_line - 1, line.rstrip("\n")
                if len(row) != width:
                    raise ValueError(f"map row has {len(row)} chars, expected {width}")
                for x, ch in enumerate(row):
                    if ch == _BLOCKED_CHAR:
                        blocked.add(Cell(x, y))
                    elif ch != _FREE_CHAR:
                        raise ValueError(f"invalid map char {ch!r} at column {x}")
                if y == height - 1:
                    grid = GridMap(width, height, frozenset(blocked))
                continue
            stripped = line.strip(string.whitespace)
            if not stripped or stripped.startswith(_BLOCKED_CHAR):
                continue
            tokens = _BLANKS.split(stripped)
            if header_line is None:
                if len(tokens) != 3 or tokens[0] != "map":
                    raise ValueError(f"malformed header: expected 'map <width> <height>', got {stripped!r}")
                if not all(map(_INT_TEXT.fullmatch, tokens[1:])):
                    raise ValueError(f"malformed header: non-integer dimensions in {stripped!r}")
                width, height = map(int, tokens[1:])
                if width < 1 or height < 1:
                    raise ValueError(f"malformed header: dimensions must be >= 1, got {width}x{height}")
                header_line = number
            elif tokens[0] != "robot":
                raise ValueError(f"expected 'robot' line, got {stripped!r}")
            else:
                task = _parse_robot_line(tokens)
                _check_task(grid, task, ids)
                tasks.append(task)
        except ValueError as exc:
            raise ScenarioError(str(exc), number) from None
    if header_line is None:
        raise ScenarioError("malformed header: empty scenario", max(len(lines), 1))
    if grid is None:
        raise ScenarioError(f"map block truncated: expected {height} rows, got {len(lines) - header_line}",
                            len(lines))
    return Scenario(name, grid, tuple(tasks))


_MAP_CHARS = bytes.maketrans(b"\x00\x01", (_BLOCKED_CHAR + _FREE_CHAR).encode())


def _render_grid(grid: GridMap, marks=None) -> str:
    """Map rows joined by newlines: `marks[cell]` where given (on-grid cells only), else '#'/'.'."""
    rows = [list(grid._mask[i:i + grid.width].translate(_MAP_CHARS).decode()) for i in grid._rows]
    for (x, y), mark in (marks or {}).items():
        rows[y][x] = mark
    return "\n".join(map("".join, rows))


def render_scenario(scenario: Scenario) -> str:
    """Serialize a Scenario back to the file format (inverse of load_scenario)."""
    grid = scenario.grid
    out = [f"map {grid.width} {grid.height}", _render_grid(grid)]
    for task in scenario.tasks:
        via = f" via {';'.join(map(str, task.waypoints))}" if task.waypoints else ""
        out.append(f"robot {task.robot_id} start {task.start}{via} goal {task.goal}")
    return "\n".join(out) + "\n"


@functools.cache
def builtin_scenario(name: str) -> Scenario:
    """Load one of the canonical built-in scenarios ('warehouse' or 'room').

    Each built-in is parsed once per process and the same frozen `Scenario`
    is returned on every later call; its map's lazily filled `Cell` slots
    only ever hold the same objects, so sharing it is safe.
    """
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown built-in scenario {name!r}; choose from {BUILTIN_NAMES}")
    text = resources.files(__package__).joinpath(f"scenarios/{name}.scen").read_text(encoding="utf-8")
    return load_scenario(text, name=name)


# ---------------------------------------------------------------------------
# Seeded endpoint sampling
# ---------------------------------------------------------------------------

def component_labels(grid: GridMap) -> dict:
    """Label each free cell with its 4-connected component id.

    A BFS flood over the occupancy mask: components are numbered from the
    first free cell in row-major order, neighbors are visited row-major, and
    cells enter the dict in discovery order.
    """
    w = grid.width + 2
    cell = grid._cell
    unseen = bytearray(grid._mask)
    labels: dict[Cell, int] = {}
    label = 0
    first = unseen.find(1)
    while first >= 0:
        unseen[first] = 0
        queue = [first]
        for i in queue:  # grows while it is walked: breadth-first order
            for nb in (i - w, i - 1, i + 1, i + w):
                if unseen[nb]:
                    unseen[nb] = 0
                    queue.append(nb)
        for i in queue:
            labels[cell(i)] = label
        label += 1
        first = unseen.find(1, first)
    return labels


# Draws allowed for one valid start/goal pair before sampling gives up.
_MAX_DRAWS = 1000


def _draw_pair(rng: random.Random, free: list, labels: dict, taken=None):
    """A (start, goal) pair of distinct cells in one component, or None after
    _MAX_DRAWS draws. `taken` is (starts, goals) already used: the start may
    not be among the starts, nor the goal among the goals."""
    used_starts, used_goals = taken or ((), ())
    for _ in range(_MAX_DRAWS):
        start = free[rng.randrange(len(free))]
        goal = free[rng.randrange(len(free))]
        if (start != goal and labels[start] == labels[goal]
                and start not in used_starts and goal not in used_goals):
            return start, goal
    return None


def random_endpoints(grid: GridMap, seed: int, n: int) -> list[tuple[Cell, Cell]]:
    """Sample n (start, goal) pairs of distinct, mutually reachable free cells.

    Pairs are uniform over all valid ordered pairs (rejection sampling) and
    fully determined by the seed. Raises ValueError when some pair takes more
    than _MAX_DRAWS draws.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    free = grid.free_cells()
    labels = component_labels(grid)
    if len(set(labels.values())) == len(labels):  # every component is one cell
        raise ValueError("grid has no two mutually reachable free cells")
    rng = random.Random(seed)
    pairs = []
    for k in range(n):
        pair = _draw_pair(rng, free, labels)
        if pair is None:
            raise ValueError(f"pair {k}: no two mutually reachable free cells drawn in {_MAX_DRAWS} draws")
        pairs.append(pair)
    return pairs
