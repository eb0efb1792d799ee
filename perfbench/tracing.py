"""Spans recorded around the benchmark's own calls into the package.

A span has a name, a start, an end, a parent and a job id.  Spans are kept in
memory and written out when the run ends; a span's self time is its duration
minus the time its children cover.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans cost one method call."""

    job_id = None

    def span(self, name):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.job_id = None
        self._next = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        sid = self._next
        self._next += 1
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans.append({"id": sid, "parent": parent, "job": self.job_id,
                               "name": name, "start": start, "end": end})

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, busy seconds of self time, median duration."""
        covered: dict[int, int] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0) + s["end"] - s["start"]
        out: dict[str, dict] = {}
        durations: dict[str, list[int]] = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            entry = out.setdefault(s["name"], {"calls": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += dur - covered.get(s["id"], 0)
            durations.setdefault(s["name"], []).append(dur)
        for name, entry in out.items():
            entry["busy_s"] = entry.pop("self_ns") / 1e9
            entry["p50_ms"] = statistics.median(durations[name]) / 1e6
        return out
