"""In-memory span recording for the traced run.

Spans are opened only around calls into the program's public API from
the benchmark's own code; nothing inside the program is instrumented.
They stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Spans:
    """Nested spans of one thread, plus ready-made spans from any thread.

    Each span records its name, start and end (seconds on the monotonic
    clock since the recorder was made), its parent, the id of the range,
    batch or query it belongs to, and the counts observed at that
    boundary.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[dict] = []
        self._lock = threading.Lock()
        self._origin = time.perf_counter()

    def _new(self, name: str, op: str, start: float, parent: int | None, counts: dict) -> dict:
        with self._lock:
            rec = {
                "id": len(self.records),
                "name": name,
                "op": op,
                "parent": parent,
                "start": start,
                "end": start,
                "counts": counts,
            }
            self.records.append(rec)
        return rec

    @contextmanager
    def span(self, name: str, op: str, **counts):
        """Time the block as a child of the innermost open span.

        Yields the span's count dict, so the caller can add the counts it
        observes at the boundary before the span closes.
        """
        parent = self._stack[-1]["id"] if self._stack else None
        rec = self._new(name, op, time.perf_counter() - self._origin, parent, dict(counts))
        self._stack.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def add(self, name: str, op: str, start: float, end: float, **counts) -> None:
        """Record a finished root span timed by ``time.perf_counter()``."""
        rec = self._new(name, op, start - self._origin, None, dict(counts))
        rec["end"] = end - self._origin

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def counts(self, name: str, key: str) -> list:
        return [r["counts"][key] for r in self.records if r["name"] == name]

    def self_times(self, root: str) -> dict[str, float]:
        """Median per-op self time of each span name under roots named ``root``.

        A span's self time is its duration minus the time its children
        cover; summed per name within one op, then the median over ops.
        Span names start with their layer, so this is the per-layer split;
        the root's own self time is the benchmark's glue between calls.
        """
        children: dict[int, list[dict]] = {}
        for r in self.records:
            if r["parent"] is not None:
                children.setdefault(r["parent"], []).append(r)
        per_op: dict[str, list[float]] = {}
        for top in (r for r in self.records if r["name"] == root and r["parent"] is None):
            totals: dict[str, float] = {}
            todo = [top]
            while todo:
                span = todo.pop()
                kids = children.get(span["id"], [])
                own = (span["end"] - span["start"]) - sum(k["end"] - k["start"] for k in kids)
                totals[span["name"]] = totals.get(span["name"], 0.0) + own
                todo.extend(kids)
            for name, value in totals.items():
                per_op.setdefault(name, []).append(value)
        return {name: statistics.median(v) for name, v in per_op.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.records}, indent=None))
