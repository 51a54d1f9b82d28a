"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the calls
into each layer's public functions; nothing inside ``src/`` is touched.
A span carries ``{id, name, layer, stage, workload, point, start_ns,
end_ns, parent}``: spans of one point share ``point``, ``parent`` is
the id of the span that caused this one, and a span's *self time* is
its duration minus the part its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Nested spans kept in a list and written out once, at exit."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, stage: str | None = None,
             point=None):
        """Time the enclosed calls as one span under the current one."""
        parent = self._stack[-1] if self._stack else None
        if point is None and parent is not None:
            point = self.spans[parent]["point"]
        rec = {"id": len(self.spans), "name": name, "layer": layer,
               "stage": stage, "workload": self.workload, "point": point,
               "parent": parent, "start_ns": 0, "end_ns": 0}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def self_ns(self) -> list[int]:
        """Self time of every span: its duration minus its children's."""
        own = [s["end_ns"] - s["start_ns"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end_ns"] - s["start_ns"]
        return own

    def stage_shares(self, stages) -> dict[str, float]:
        """Share of the staged self time spent in each of ``stages``."""
        total = dict.fromkeys(stages, 0)
        for s, own in zip(self.spans, self.self_ns()):
            if s["stage"] is not None:
                total[s["stage"]] += own
        whole = sum(total.values())
        return {stage: ns / whole for stage, ns in total.items()}

    def write(self, path: str) -> None:
        """Dump every span (with its self time) as one JSON document."""
        spans = [dict(s, self_ns=own)
                 for s, own in zip(self.spans, self.self_ns())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": "perf.trace/1", "workload": self.workload,
                       "spans": spans}, fh)
            fh.write("\n")
