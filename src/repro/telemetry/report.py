"""Fold a telemetry stream into a ``repro.sweep-report/1`` document.

The sweep-report is the execution-layer counterpart of the monitor
suite's metrics documents: one JSON summary per sweep with the metrics
a regression gate should watch — resolution-tier mix, store hit rate
aggregated across *every* process that touched the store, batch
occupancy, retry/backoff totals, scheduler overhead fraction, points
per second. It flows through the same ``repro compare`` machinery as
metrics and bench documents (``monitor/regression.py`` carries
threshold rules for its keys), so a sweep can be gated on "did the
store stop hitting" or "did batching stop filling lanes" exactly like
it is gated on latency.

Built by re-reading the whole stream (the parent process never sees
worker-emitted records in memory), tolerant of in-flight streams: a
report built mid-sweep simply has ``status: "in-flight"`` and the
counts so far. When one file holds several sweeps (resumed runs append)
the *last* sweep's records are summarized.
"""

from __future__ import annotations

import json
import sys

from .stream import read_stream

#: Document schema tag; bump when the summary fields change meaning.
SWEEP_REPORT_SCHEMA = "repro.sweep-report/1"


def report_path(telemetry_path: str) -> str:
    """The sweep-report path written next to a telemetry stream."""
    base = str(telemetry_path)
    if base.endswith(".jsonl"):
        base = base[:-len(".jsonl")]
    return base + ".sweep-report.json"


def latest_sweep(records: list[dict]) -> list[dict]:
    """The records of the last sweep in a stream (resumes append)."""
    begins = [r for r in records if r.get("ev") == "sweep_begin"]
    if not begins:
        return list(records)
    sweep = begins[-1].get("sweep")
    return [r for r in records if r.get("sweep") == sweep]


class SweepFold:
    """One sweep's records folded one at a time.

    The single reading of the record vocabulary: ``build_sweep_report``
    feeds it a whole stream, ``repro top`` feeds it records as they
    land. ``feed`` keeps raw counts only; what depends on which span of
    a point is the *last* one (tier/backend mix, per-worker busy time)
    is derived on demand by :meth:`mix`.
    """

    def __init__(self):
        self.begin = None
        self.end = None
        self.first_t = None          # earliest / latest record timestamp
        self.last_t = None
        self.points: dict = {}       # idx -> last point span (last wins)
        self.errors: list[dict] = []  # terminal point_error records
        self.retries = 0
        self.backoff_s = 0.0
        self.units_ok = 0
        self.unit_lanes = 0
        self.batch_failures = 0
        self.groups = None
        self.chunks = 0
        self.turnaround_s = 0.0
        self.persist_store_s = 0.0
        self.persist_journal_s = 0.0
        self.degrades: list = []
        self.store_by_pid: dict = {}  # pid -> last cumulative counters

    def feed(self, record: dict) -> None:
        """Fold one record of the sweep into the counts."""
        t = record.get("t")
        if t is not None:
            if self.first_t is None or t < self.first_t:
                self.first_t = t
            if self.last_t is None or t > self.last_t:
                self.last_t = t
        ev = record.get("ev")
        if ev == "sweep_begin":
            self.begin = record
        elif ev == "sweep_end":
            self.end = record
        elif ev == "point":
            self.points[record.get("idx")] = record
        elif ev == "point_error":
            self.errors.append(record)
        elif ev == "retry":
            self.retries += 1
            self.backoff_s += float(record.get("delay_s") or 0.0)
        elif ev == "unit":
            if record.get("status") == "ok":
                self.units_ok += 1
                self.unit_lanes += int(record.get("lanes") or 0)
            else:
                self.batch_failures += 1
        elif ev == "batch_groups":
            self.groups = record
        elif ev == "chunk":
            self.chunks += 1
            self.turnaround_s += float(record.get("turnaround_s") or 0.0)
        elif ev == "degrade":
            self.degrades.append(record.get("reason"))
        elif ev == "persist":
            self.persist_store_s += float(record.get("store_s") or 0.0)
            self.persist_journal_s += float(record.get("journal_s") or 0.0)
        elif ev == "worker_store":
            # Cumulative per process: the last event per pid wins.
            self.store_by_pid[record.get("pid")] = record.get("stats")

    def mix(self):
        """``(tiers, backends, per_worker)`` over each point's last span."""
        tiers: dict = {}
        backends: dict = {}
        per_worker: dict = {}        # pid -> {points, busy_s}
        for span in self.points.values():
            tier = span.get("tier")
            tiers[tier] = tiers.get(tier, 0) + 1
            backend = span.get("backend")
            if backend:
                backends[backend] = backends.get(backend, 0) + 1
            worker = per_worker.setdefault(
                span.get("pid"), {"points": 0, "busy_s": 0.0})
            worker["points"] += 1
            worker["busy_s"] = round(
                worker["busy_s"] + float(span.get("dur_s") or 0.0), 6)
        return tiers, backends, per_worker


def build_sweep_report(records: list[dict]) -> dict:
    """Summarize one sweep's telemetry records into the report document.

    ``records`` is a full stream read (``read_stream``); when the file
    holds several sweeps the last one is reported. Works on in-flight
    streams: absent a ``sweep_end`` the status is ``in-flight`` and
    wall-clock is estimated from the record timestamps.
    """
    fold = SweepFold()
    for record in latest_sweep(records):
        fold.feed(record)
    tiers, backends, per_worker = fold.mix()
    begin = fold.begin or {}
    end = fold.end
    spans = fold.points
    completed = len(spans)
    total = begin.get("points")

    if end is not None and end.get("wall_s") is not None:
        wall_s = float(end["wall_s"])
    elif fold.first_t is not None:
        wall_s = round(fold.last_t - fold.first_t, 6)
    else:
        wall_s = 0.0
    sim_spans = [s for s in spans.values() if s.get("tier") == "simulate"]
    busy_s = round(sum(float(s.get("dur_s") or 0.0) for s in sim_spans), 6)
    worker_pids = {s.get("pid") for s in sim_spans}
    processes = max(1, len(worker_pids))
    utilization = (busy_s / (processes * wall_s)) if wall_s > 0 else 0.0

    store_totals: dict[str, int] = {}
    for stats in fold.store_by_pid.values():
        if isinstance(stats, dict):
            for key, value in stats.items():
                if isinstance(value, (int, float)):
                    store_totals[key] = (store_totals.get(key, 0)
                                         + int(value))
    looked = store_totals.get("hits", 0) + store_totals.get("misses", 0)

    groups = fold.groups or {}
    batch_size = begin.get("batch_size")
    multi_units = groups.get("multi_lane_units")
    occupancy = None
    if fold.units_ok and batch_size:
        occupancy = round(
            fold.unit_lanes / (fold.units_ok * batch_size), 4)

    report = {
        "schema": SWEEP_REPORT_SCHEMA,
        "sweep": begin.get("sweep"),
        "status": (end.get("status") if end is not None else "in-flight"),
        "points": total,
        "completed": completed,
        "failed": len(fold.errors),
        "wall_s": wall_s,
        "points_per_s": (round(completed / wall_s, 3) if wall_s > 0
                         else None),
        "tiers": dict(sorted(tiers.items())),
        "backends": dict(sorted(backends.items())),
        "retries": {
            "scheduled": fold.retries,
            "backoff_s": round(fold.backoff_s, 6),
            "attempts_total": sum(int(s.get("attempts") or 0)
                                  for s in spans.values()),
        },
        "batch": {
            "batch_size": batch_size,
            "units": groups.get("units"),
            "multi_lane_units": multi_units,
            "completed_units": fold.units_ok,
            "lanes": fold.unit_lanes,
            "occupancy": occupancy,
            "batch_failures": fold.batch_failures,
        },
        "scheduler": {
            "workers": begin.get("workers"),
            "worker_processes": processes,
            "busy_s": busy_s,
            "utilization": round(utilization, 4),
            "overhead_fraction": round(max(0.0, 1.0 - utilization), 4),
            "chunks": fold.chunks,
            "dispatch_turnaround_s": round(fold.turnaround_s, 6),
            "persist_store_s": round(fold.persist_store_s, 6),
            "persist_journal_s": round(fold.persist_journal_s, 6),
            "degraded": fold.degrades,
        },
        "errors": [{"idx": e.get("idx"), "label": e.get("label"),
                    "reason": e.get("reason"),
                    "attempts": e.get("attempts")}
                   for e in fold.errors[:8]],
        "per_worker": {str(pid): stats for pid, stats
                       in sorted(per_worker.items(),
                                 key=lambda item: str(item[0]))},
    }
    if end is not None and end.get("error"):
        report["error"] = end["error"]
    if store_totals:
        report["store"] = dict(sorted(store_totals.items()))
        report["store"]["processes"] = len(fold.store_by_pid)
        report["store_hit_rate"] = (round(store_totals.get("hits", 0)
                                          / looked, 4)
                                    if looked else None)
    if len(backends) == 1:
        report["backend"] = next(iter(backends))
    return report


def write_sweep_report(telemetry_path: str,
                       out_path: str | None = None) -> str:
    """Read a stream, build its report, write it next door; the path.

    ``out_path`` overrides the default sibling path
    (:func:`report_path`). The caller decides when — the scheduler
    writes one automatically at ``sweep_end`` when telemetry was given
    as a path.
    """
    report = build_sweep_report(read_stream(telemetry_path))
    out = out_path or report_path(telemetry_path)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return out


def try_write_sweep_report(telemetry_path: str) -> str | None:
    """``write_sweep_report`` that must never break the sweep it records.

    Telemetry is observation: a failure to summarize (unwritable
    sibling path, for instance) warns on stderr and returns ``None``
    instead of raising into the scheduler's finally block.
    """
    try:
        return write_sweep_report(telemetry_path)
    except Exception as exc:
        print(f"warning: sweep-report not written for {telemetry_path}: "
              f"{exc}", file=sys.stderr)
        return None
