"""Self-checking observability: online invariant monitors.

Monitors are probes (``repro.instrument``) that maintain shadow models of
the network's invariants and verify them at cycle boundaries — the
simulator proves itself correct while it runs, at zero cost when no
monitor is attached. ``default_registry()`` bundles the scalar core's
suite; ``attach_checks`` attaches what a checked run is observed by on
either core -- for ``run_experiment(check=True)`` and the ``repro
bench`` gate (``repro.instrument.overhead``) alike, which proves them
harmless; ``compare_docs`` turns two runs' metrics documents into a
regression report.
"""

from ..core.violation import InvariantViolation
from .base import Monitor
from .conservation import ConservationMonitor
from .credit import CreditMonitor
from .pc import PseudoCircuitMonitor
from .registry import (
    METRICS_SCHEMA,
    METRICS_SET_SCHEMA,
    MetricsRegistry,
    attach_checks,
    default_registry,
    metrics_path,
    metrics_set,
    write_metrics,
)
from .regression import (
    REPORT_SCHEMA,
    compare_docs,
    compare_files,
    document_backend,
    flatten,
    render_report,
)
from .watchdog import ProgressWatchdog

__all__ = [
    "METRICS_SCHEMA",
    "METRICS_SET_SCHEMA",
    "REPORT_SCHEMA",
    "ConservationMonitor",
    "CreditMonitor",
    "InvariantViolation",
    "MetricsRegistry",
    "Monitor",
    "ProgressWatchdog",
    "PseudoCircuitMonitor",
    "attach_checks",
    "compare_docs",
    "compare_files",
    "default_registry",
    "document_backend",
    "flatten",
    "metrics_path",
    "metrics_set",
    "render_report",
    "write_metrics",
]
