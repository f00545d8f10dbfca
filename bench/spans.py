"""Spans and counters recorded by the benchmark around calls into the library.

A span is (name, start, end, parent index); spans are kept in memory and
written out once the run ends.  A span's self time is its duration minus
the durations of its direct children, which lie inside it because one
caller runs one op at a time.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, list[float]] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named name."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def count(self, name: str, value: float) -> None:
        """Add one observation of a counter; its metric is the mean."""
        total = self.counts.setdefault(name, [0.0, 0])
        total[0] += value
        total[1] += 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class NullTracer:
    """Runs the call with nothing recorded: the untraced path."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def self_times(spans) -> list[float]:
    """Per span, its duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans) -> dict[str, tuple[int, float]]:
    """Per span name, the number of calls and the summed self time."""
    totals: dict[str, tuple[int, float]] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        calls, seconds = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, seconds + own)
    return totals
