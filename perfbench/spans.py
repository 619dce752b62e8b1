"""In-memory span recording around perfplan's public functions.

The package binds its functions with `from .x import y`, so a caller
resolves a name in its own module's namespace. Tracing therefore replaces
every binding of a public function, in every layer module and in the
package namespace, with one timing wrapper, and puts the originals back on
exit. Spans are (id, parent id, name, start, end) tuples kept in a list and
written out only after the run.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import time

# Called once per search-loop iteration: a span there would time the tracer,
# not the planner.
UNTRACED = {"manhattan", "perforation_schedule"}


class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0
        self._saved: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one of its calls."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        wrappers: dict = {}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in UNTRACED or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("perfplan.")):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()
        return False


class SpanIndex:
    """Queries over recorded spans: durations, self times, ancestry.

    Durations are divided by `factor`, the speed factor of the traced
    phase (see clock.py), so they compare with the end-to-end times."""

    def __init__(self, spans, factor=1.0):
        self.factor = factor
        self.by_id = {s[0]: s for s in spans}
        self.child_time: dict = {}
        self.children: dict = {}
        for sid, parent, _name, start, end in spans:
            if parent >= 0:
                self.child_time[parent] = self.child_time.get(parent, 0.0) + (end - start)
                self.children.setdefault(parent, []).append(sid)

    def named(self, name, under=None):
        """Spans called `name`, optionally only those with an ancestor named `under`."""
        out = []
        for s in self.by_id.values():
            if s[2] == name and (under is None or self.ancestor(s, under)):
                out.append(s)
        return out

    def ancestor(self, span, name):
        parent = span[1]
        while parent >= 0:
            p = self.by_id[parent]
            if p[2] == name or (name.endswith("*") and p[2].startswith(name[:-1])):
                return p
            parent = p[1]
        return None

    def duration(self, span) -> float:
        return (span[4] - span[3]) / self.factor

    def self_time(self, span) -> float:
        return self.duration(span) - self.child_time.get(span[0], 0.0) / self.factor

    def descendants(self, span, name) -> list:
        out, todo = [], list(self.children.get(span[0], ()))
        while todo:
            s = self.by_id[todo.pop()]
            if s[2] == name:
                out.append(s)
            todo.extend(self.children.get(s[0], ()))
        return out

    def summary(self) -> dict:
        """Per span name: count, total ms and self ms."""
        out: dict = {}
        for s in self.by_id.values():
            row = out.setdefault(s[2], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += self.duration(s) * 1e3
            row["self_ms"] += self.self_time(s) * 1e3
        return dict(sorted(out.items()))


def median_ms(values) -> float:
    values = list(values)
    return statistics.median(values) * 1e3 if values else 0.0
