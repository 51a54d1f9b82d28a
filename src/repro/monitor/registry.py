"""Metrics registry: one JSON document per checked run.

``MetricsRegistry`` owns a set of monitors, exposes them as a single
composite probe, and at the end of a run folds every monitor's snapshot —
plus the run's ``NetworkStats`` summary — into one JSON-ready document.
Written next to the run-provenance manifest (PR 3), the document is the
input to ``python -m repro compare`` for run-to-run regression reports.
"""

from __future__ import annotations

import json

from ..instrument.probe import CompositeProbe
from ..network.backend import backend_of
from .base import Monitor
from .conservation import ConservationMonitor
from .credit import CreditMonitor
from .pc import PseudoCircuitMonitor
from .watchdog import ProgressWatchdog

#: Schema tag of a single-run metrics document.
METRICS_SCHEMA = "repro.metrics/1"
#: Schema tag of a multi-run document (one entry per labelled run).
METRICS_SET_SCHEMA = "repro.metrics-set/1"


class MetricsRegistry:
    """A set of monitors plus the machinery to snapshot them as JSON."""

    def __init__(self, monitors: list[Monitor] | None = None):
        self.monitors: list[Monitor] = list(monitors or [])

    def register(self, monitor: Monitor) -> Monitor:
        self.monitors.append(monitor)
        return monitor

    def probe(self) -> CompositeProbe:
        """The probe to attach to a network (fans out to every monitor)."""
        return CompositeProbe(*self.monitors)

    @property
    def violations(self) -> list:
        out = []
        for monitor in self.monitors:
            out.extend(monitor.violations)
        return out

    def finish(self, network) -> dict:
        """Run every monitor's end-of-run checks and snapshot the run."""
        for monitor in self.monitors:
            monitor.finish(network)
        return self.snapshot(network)

    def snapshot(self, network, backend: str | None = None) -> dict:
        """One JSON-ready document for the run ``network`` just finished.

        ``backend`` overrides the concrete-core stamp — the per-lane
        snapshot path of batched runs passes a stats shim that is not
        the live network, so it names the core explicitly.
        """
        stats = network.stats
        run = dict(stats.summary())
        run["pc_established"] = stats.pc_established
        run["pc_restored"] = stats.pc_restored
        run["pc_terminations"] = {
            reason.value: count
            for reason, count in stats.pc_terminations.items() if count}
        violations = self.violations
        return {
            "schema": METRICS_SCHEMA,
            "cycle": network.cycle,
            "backend": backend if backend is not None
            else backend_of(network),
            "run": run,
            "monitors": {m.name: m.snapshot() for m in self.monitors},
            "violations": [v.to_dict() for v in violations],
            "violation_count": len(violations),
        }


def default_registry(strict: bool = True) -> MetricsRegistry:
    """The scalar core's monitor suite (what ``--check`` attaches there)."""
    return MetricsRegistry([
        ConservationMonitor(strict=strict),
        CreditMonitor(strict=strict),
        PseudoCircuitMonitor(strict=strict),
        ProgressWatchdog(strict=strict),
    ])


def attach_checks(net, probe=None, stride: int = 1) -> MetricsRegistry:
    """Attach what observes a checked run to a bare network, built or
    leased, with ``probe`` beside it: the one statement of it, for
    ``run_experiment(check=True)`` and the bench gate alike.

    The scalar core binds the strict ``default_registry``'s composite
    probe (merged with ``probe``); an array core binds ``probe`` (or
    refuses it, before anything is attached), attaches the strict
    ``VectorInvariantChecker`` (``kernel.c`` walks the chip every
    ``stride`` stepped cycles, inside the call that runs them) and
    switches on the per-phase profiler. Returns the registry
    whose ``finish`` / ``snapshot`` give the run's metrics document.
    """
    if hasattr(net, "attach_checker"):
        from ..network.vectorized import VectorInvariantChecker
        if probe is not None:
            net.bind_probe(probe)
        checker = VectorInvariantChecker(strict=True, stride=stride)
        net.attach_checker(checker)
        net.enable_profile()
        return MetricsRegistry([checker])
    registry = default_registry(strict=True)
    monitors = registry.probe()
    net.bind_probe(monitors if probe is None
                   else CompositeProbe(probe, monitors))
    return registry


def metrics_path(path: str) -> str:
    """Metrics-document path derived from a results path
    (``out.json`` -> ``out.metrics.json``)."""
    stem = path[:-5] if path.endswith(".json") else path
    return stem + ".metrics.json"


def write_metrics(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def metrics_set(runs: list[tuple[str, dict]]) -> dict:
    """Bundle labelled single-run documents into one multi-run document."""
    return {
        "schema": METRICS_SET_SCHEMA,
        "runs": [{"label": label, **doc} for label, doc in runs],
        "violation_count": sum(doc["violation_count"]
                               for _, doc in runs),
    }
