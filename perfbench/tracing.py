"""In-memory spans recorded by the benchmark around its own calls into genquilt.

A span is (name, start, end, parent): times are time.perf_counter() seconds
(CLOCK_MONOTONIC, shared with child processes), parent is the index of the
enclosing span or -1.  Nothing is written until the run ends.
"""

import json
import statistics
import time


def direct(name, fn, *args):
    """The untraced form of Tracer.call."""
    return fn(*args)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._open = -1

    def open(self, name: str, start: float) -> int:
        self.spans.append([name, start, start, self._open])
        self._open = len(self.spans) - 1
        return self._open

    def close(self, idx: int, end: float) -> None:
        self.spans[idx][2] = end
        self._open = self.spans[idx][3]

    def add(self, name: str, start: float, end: float) -> None:
        """A finished span under the open one (e.g. timed inside a child process)."""
        self.spans.append([name, start, end, self._open])

    def call(self, name, fn, *args):
        idx = self.open(name, time.perf_counter())
        try:
            return fn(*args)
        finally:
            self.close(idx, time.perf_counter())

    def child_time(self) -> list[float]:
        """For each span, the seconds its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def summary(self) -> dict:
        """Per span name: calls, total and median duration, and self time (minus child spans)."""
        by_name: dict = {}
        for (name, start, end, _), inner in zip(self.spans, self.child_time()):
            by_name.setdefault(name, []).append((end - start, end - start - inner))
        return {
            name: {
                "calls": len(rows),
                "total_ms": 1000 * sum(d for d, _ in rows),
                "p50_ms": 1000 * statistics.median(d for d, _ in rows),
                "self_p50_ms": 1000 * statistics.median(s for _, s in rows),
                "self_total_ms": 1000 * sum(s for _, s in rows),
            }
            for name, rows in sorted(by_name.items())
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"summary": self.summary(), "spans": self.spans}, fh, separators=(",", ":"))
