"""Exact JSON round-tripping of experiment results for the store.

A stored result must come back *bit-identical* to the ``Result`` the
simulator produced — the resume guarantee of the sweep scheduler and the
cache-hit guarantee of the store both reduce to dataclass equality. JSON
is exact for this payload: python floats survive a dump/load round trip
(``repr`` round-tripping), ints stay ints, and the config dataclasses are
rebuilt field-for-field (including the nested ``PseudoCircuitConfig``).

Checked-run extras never enter the store: ``Result.monitor_report`` is
dropped on serialization because checked runs bypass the cache entirely —
a stored report would misrepresent a replayed run as having been
monitored. The provenance ``manifest`` *is* kept (it describes the run
that actually produced the numbers, which is exactly what a cache hit
replays), and it is excluded from ``Result`` equality anyway.

The harness imports are deferred to call time so the store package can be
imported by ``harness.experiment`` without a cycle.
"""

from __future__ import annotations

from ..instrument.provenance import config_dict
from .sealed import canonical_json

#: Payload schema tag; bump when the serialized field set changes.
PAYLOAD_SCHEMA = "repro.result-payload/1"

#: Scalar ``Result`` fields copied verbatim into/out of the payload.
_METRIC_FIELDS = (
    "avg_latency", "avg_network_latency", "avg_hops", "reusability",
    "buffer_bypass_rate", "e2e_locality", "xbar_locality", "packets",
    "flit_hops", "energy_pj", "pc_restored",
)


def config_to_payload(config) -> dict:
    """Flatten an ``ExperimentConfig`` to a plain JSON-able dict
    (``dataclasses.asdict``'s output, without its per-leaf deepcopy)."""
    return config_dict(config)


def payload_to_config(payload: dict):
    """Rebuild an ``ExperimentConfig`` (with its nested scheme) exactly."""
    from ..harness.experiment import ExperimentConfig
    from ..network.config import PseudoCircuitConfig
    fields = dict(payload)
    fields["scheme"] = PseudoCircuitConfig(**fields["scheme"])
    return ExperimentConfig(**fields)


def result_to_payload(result) -> dict:
    """Serialize a ``Result`` to the JSON payload stored on disk."""
    payload = {
        "schema": PAYLOAD_SCHEMA,
        "config": config_to_payload(result.config),
        "energy_breakdown": dict(result.energy_breakdown),
        "manifest": result.manifest,
    }
    for name in _METRIC_FIELDS:
        payload[name] = getattr(result, name)
    return payload


def result_to_text(result) -> str:
    """A ``Result``'s payload in the canonical text form sealed records
    carry — encoded once, handed to the store and the journal alike."""
    return canonical_json(result_to_payload(result))


def payload_to_result(payload: dict):
    """Rebuild the ``Result`` a payload was serialized from.

    The returned dataclass is field-equal to the original (bit-identical
    metrics); ``monitor_report`` is always ``None`` because checked runs
    are never stored.
    """
    from ..harness.experiment import Result
    if payload.get("schema") != PAYLOAD_SCHEMA:
        raise ValueError(
            f"unknown result payload schema: {payload.get('schema')!r}")
    metrics = {name: payload[name] for name in _METRIC_FIELDS}
    return Result(
        config=payload_to_config(payload["config"]),
        energy_breakdown=dict(payload["energy_breakdown"]),
        manifest=payload.get("manifest"),
        monitor_report=None,
        **metrics,
    )
