"""In-memory spans recorded around calls the benchmark makes into ``uct``.

Spans are opened only in the benchmark's own files, around public calls; no
module of the program is patched.  They are kept in memory and written out
once the traced run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans (name, start, end, parent span and run id) and
    exact counts summed at the same boundaries."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self._open = []

    def add(self, name: str, value: int):
        self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "run_id": self.run_id,
                  "parent": self._open[-1]["id"] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans) -> dict:
    """span id -> duration minus the durations of its direct children.

    Spans nest on one thread, so a span's children are disjoint and lie
    inside it."""
    result = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            result[s["parent"]] -= s["end"] - s["start"]
    return result


def self_time_by_name(spans) -> dict:
    """Span name -> self time summed over every span of that name."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    return totals
