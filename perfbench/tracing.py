"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op id). Spans are recorded around calls
into the package's public functions, kept in memory and written out once,
when the run ends. The untraced run uses :data:`NO_TRACE`, whose spans cost
one ``nullcontext`` each.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)  # reserve the slot so children can point here
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)

    def seconds_by_op(self) -> dict[str, dict[str, float]]:
        """Total span time per op id and span name."""
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            totals[s.op][s.name] += s.seconds
        return {op: dict(names) for op, names in totals.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(asdict(s)) + "\n")


class _NoTrace:
    enabled = False
    op = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null


NO_TRACE = _NoTrace()
