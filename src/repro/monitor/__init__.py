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

Each name below loads its module on first use, so what needs only
``monitor.base`` (the array core's ``VectorInvariantChecker``) does not
load the scalar suite with it.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "..core.violation": ("InvariantViolation",),
    ".base": ("Monitor",),
    ".conservation": ("ConservationMonitor",),
    ".credit": ("CreditMonitor",),
    ".pc": ("PseudoCircuitMonitor",),
    ".registry": ("METRICS_SCHEMA", "METRICS_SET_SCHEMA", "MetricsRegistry",
                  "attach_checks", "default_registry", "metrics_path",
                  "metrics_set", "write_metrics"),
    ".regression": ("REPORT_SCHEMA", "compare_docs", "compare_files",
                    "document_backend", "flatten", "render_report"),
    ".watchdog": ("ProgressWatchdog",),
})
