"""Zero-overhead instrumentation layer.

Three orthogonal pieces, all optional at construction time:

* **Probes** (`probe`) — the event interface the network components emit
  into. When no probe is attached (the default) every hot path pays at most
  one attribute test; `python -m repro bench` enforces this.
* **Flit-lifecycle tracing** (`tracer`) — per-hop events with packet-id
  correlation, exportable as JSONL and as Chrome ``trace_event`` JSON
  loadable in Perfetto / ``chrome://tracing``.
* **Windowed time series** (`series`) — per-router ring-buffer samples
  (occupancy, link utilization, pseudo-circuit reuse, throughput) with
  CSV/JSON export plus spatial heatmaps for grid topologies, on every
  core.

**Run provenance** (`provenance`) stamps every bench/sweep/figure output
with a manifest: config dict + hash, git SHA, seed, python version and
wall-clock, so any result file is reproducible from its sidecar alone.

Each name loads its module on first use: a run stamps a manifest
(``provenance``) without loading the probes, the tracer or the gate.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".overhead": ("identity_check", "overhead_gate"),
    ".probe": ("CompositeProbe", "Probe"),
    ".provenance": ("config_hash", "git_sha", "manifest_path",
                    "run_manifest", "write_manifest"),
    ".series": ("TimeSeriesProbe",),
    ".tracer": ("FlitTracer",),
})
