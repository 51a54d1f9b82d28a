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
  CSV/JSON export plus spatial heatmaps for grid topologies.

**Run provenance** (`provenance`) stamps every bench/sweep/figure output
with a manifest: config dict + hash, git SHA, seed, python version and
wall-clock, so any result file is reproducible from its sidecar alone.
"""

from .overhead import (identity_check, overhead_gate,
                       vectorized_identity_check, vectorized_overhead_gate)
from .probe import CompositeProbe, Probe
from .provenance import (config_hash, git_sha, manifest_path, run_manifest,
                         write_manifest)
from .series import TimeSeriesProbe
from .tracer import FlitTracer

__all__ = [
    "Probe", "CompositeProbe", "FlitTracer", "TimeSeriesProbe",
    "run_manifest", "write_manifest", "manifest_path", "config_hash",
    "git_sha", "overhead_gate", "identity_check",
    "vectorized_overhead_gate", "vectorized_identity_check",
]
