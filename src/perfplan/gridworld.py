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
import random
import re
from dataclasses import dataclass
from importlib import resources
from itertools import compress
from typing import Iterable, NamedTuple


class Cell(NamedTuple):
    x: int
    y: int

    def __str__(self):
        """The text form of scenario files and messages; `_parse_cell` reads it back."""
        return f"{self.x},{self.y}"


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
    is blocked or on the border.

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
        cells = frozenset(Cell(x, y) for x, y in self.blocked)
        object.__setattr__(self, "blocked", cells)
        for cell in cells:
            if not self.in_bounds(cell):
                raise ValueError(f"blocked cell {cell} out of range for {self.width}x{self.height} grid")
        if len(cells) >= self.width * self.height:
            raise ValueError("grid has no free cell")
        w = self.width + 2
        mask = bytearray(w * (self.height + 2))
        for y in range(1, self.height + 1):
            mask[y * w + 1:y * w + w - 1] = b"\x01" * self.width
        for x, y in cells:
            mask[(y + 1) * w + x + 1] = 0
        object.__setattr__(self, "_mask", bytes(mask))
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
        x, y = cell
        return self.in_bounds(cell) and self._mask[(y + 1) * (self.width + 2) + x + 1] == 1

    def neighbors(self, cell: Cell) -> list[Cell]:
        """Free 4-neighbors of an in-bounds cell, in row-major order."""
        if not self.in_bounds(cell):
            raise ValueError(f"cell {cell} out of range for {self.width}x{self.height} grid")
        x, y = cell
        w = self.width + 2
        i = (y + 1) * w + x + 1
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
        object.__setattr__(self, "start", Cell(*self.start))
        object.__setattr__(self, "goal", Cell(*self.goal))
        object.__setattr__(self, "waypoints", tuple(Cell(*w) for w in self.waypoints))

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
            ("waypoint", w) for w in task.waypoints]:
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

# Only what `str(cell)` can write: no sign but '-', no blanks, no '_', ASCII digits.
_CELL_TEXT = re.compile(r"(-?[0-9]+),(-?[0-9]+)")


def _parse_cell(token: str) -> Cell:
    """The cell written `<x>,<y>`, as `str(cell)` writes it; ValueError otherwise."""
    match = _CELL_TEXT.fullmatch(token)
    if match is None:
        raise ValueError(f"expected cell as <x>,<y>, got {token!r}")
    return Cell(int(match[1]), int(match[2]))


def _parse_robot_line(tokens: list[str]) -> RobotTask:
    try:
        robot_id = int(tokens[1])
    except (IndexError, ValueError):
        raise ValueError("expected 'robot <id> start <x>,<y> [via ...] goal <x>,<y>'") from None
    rest = tokens[2:]
    if len(rest) not in (4, 6) or rest[0] != "start" or rest[-2] != "goal":
        raise ValueError("expected 'robot <id> start <x>,<y> [via ...] goal <x>,<y>'")
    start, goal = _parse_cell(rest[1]), _parse_cell(rest[-1])
    waypoints = ()
    if len(rest) == 6:
        if rest[2] != "via":
            raise ValueError(f"expected 'via', got {rest[2]!r}")
        waypoints = tuple(_parse_cell(tok) for tok in rest[3].split(";"))
    return RobotTask(robot_id, start, goal, waypoints)


def load_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse scenario-file text into a validated Scenario.

    Raises ScenarioError with a 1-based line number on malformed input.
    """
    lines = text.splitlines()
    pos = 0

    def next_meaningful():
        nonlocal pos
        while pos < len(lines):
            pos += 1
            stripped = lines[pos - 1].strip()
            if stripped and not stripped.startswith(_BLOCKED_CHAR):
                return stripped, pos
        return None, pos

    header, header_line = next_meaningful()
    if header is None:
        raise ScenarioError("malformed header: empty scenario", max(header_line, 1))
    tokens = header.split()
    if len(tokens) != 3 or tokens[0] != "map":
        raise ScenarioError(f"malformed header: expected 'map <width> <height>', got {header!r}", header_line)
    try:
        width, height = int(tokens[1]), int(tokens[2])
    except ValueError:
        raise ScenarioError(f"malformed header: non-integer dimensions in {header!r}", header_line) from None
    if width < 1 or height < 1:
        raise ScenarioError(f"malformed header: dimensions must be >= 1, got {width}x{height}", header_line)

    # The map block is read verbatim: no comments or blank lines inside it.
    blocked = set()
    for y in range(height):
        if pos >= len(lines):
            raise ScenarioError(f"map block truncated: expected {height} rows, got {y}", pos)
        row = lines[pos]
        pos += 1
        if len(row) != width:
            raise ScenarioError(f"map row has {len(row)} chars, expected {width}", pos)
        for x, ch in enumerate(row):
            if ch == _BLOCKED_CHAR:
                blocked.add(Cell(x, y))
            elif ch != _FREE_CHAR:
                raise ScenarioError(f"invalid map char {ch!r} at column {x}", pos)
    grid = GridMap(width, height, frozenset(blocked))

    tasks = []
    ids = set()
    while True:
        stripped, line = next_meaningful()
        if stripped is None:
            break
        tokens = stripped.split()
        if tokens[0] != "robot":
            raise ScenarioError(f"expected 'robot' line, got {stripped!r}", line)
        try:
            task = _parse_robot_line(tokens)
            _check_task(grid, task, ids)
        except ValueError as exc:
            raise ScenarioError(str(exc), line) from None
        tasks.append(task)

    return Scenario(name, grid, tuple(tasks))


_MAP_CHARS = bytes.maketrans(b"\x00\x01", (_BLOCKED_CHAR + _FREE_CHAR).encode())


def _render_grid(grid: GridMap, marks=None) -> str:
    """Map rows joined by newlines: `marks[cell]` where given (on-grid cells only), else '#'/'.'."""
    w = grid.width + 2
    rows = [list(grid._mask[y * w + 1:y * w + w - 1].translate(_MAP_CHARS).decode())
            for y in range(1, grid.height + 1)]
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
