"""Harness telemetry: span-structured tracing of sweep execution.

The simulator core became observable in PRs 3/4/8 (probes, monitors,
the per-phase profiler); this package gives the *execution layer* the
same treatment. Every sweep run can emit an append-only JSONL telemetry
stream — written and read by the checkpoint journal's own sealed-log
writer and reader (``repro.store.sealed``) — of structured spans
(sweep → batched unit → point) and scheduler lifecycle events (pool
degradation, timeout stalls, batch-group formation, solo fallback,
retries with their backoff schedule).

Layers on top of the stream:

* :mod:`repro.telemetry.report` — fold a stream into a
  ``repro.sweep-report/1`` summary document that ``repro compare``
  regression-gates on *execution* metrics (store hit rate, batch
  occupancy, scheduler overhead fraction);
* :mod:`repro.telemetry.trace_export` — render the stream as a Chrome
  ``trace_event`` document (workers as tracks; opens in Perfetto next
  to a core-level flit trace);
* :mod:`repro.telemetry.top` — ``repro top``, a live follower that
  tails the stream of an in-flight sweep, possibly owned by another
  process.

The scheduler (``repro.harness.parallel``) always holds an emitter; by
default it is the off emitter (:data:`~repro.telemetry.spans.OFF`),
which returns from every call and writes nothing
(``repro.instrument.overhead.telemetry_cold_check`` gates it). Pass a
path (or a :class:`Telemetry`) to ``run_experiments`` / ``repro sweep
--telemetry`` to switch the stream on.

Each name loads its module on first use, and the off emitter loads no
writer: a sweep with telemetry off never loads the stream, the report,
``top`` or the trace export.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".report": ("SWEEP_REPORT_SCHEMA", "build_sweep_report", "report_path",
                "write_sweep_report"),
    ".spans": ("Telemetry", "new_sweep_id"),
    ".stream": ("SCHEMA", "TailReader", "TelemetryWriter",
                "parse_telemetry_line", "read_stream"),
    ".top": ("SweepProgress", "run_top"),
    ".trace_export": ("telemetry_chrome_trace", "write_chrome_trace"),
})
