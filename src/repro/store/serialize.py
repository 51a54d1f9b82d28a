"""Exact JSON round-tripping of experiment results for the store.

A stored result must come back *bit-identical* to the ``Result`` the
simulator produced — the resume guarantee of the sweep scheduler and the
cache-hit guarantee of the store both reduce to dataclass equality. JSON
is exact for this payload: python floats survive a dump/load round trip
(``repr`` round-tripping) and ints stay ints.

A reader that asks for a point already holds its config, so
``payload_to_result(payload, config)`` builds the ``Result`` around that
config instead of rebuilding one — after checking, by the manifest's
``config_sha256`` against the memoized ``config_hash(config)``, that the
payload is that config's result; a payload that cannot show it raises
``ValueError`` like an unreadable one. Read without a config, the config
dataclasses are rebuilt field-for-field (including the nested
``PseudoCircuitConfig``).

The payload holds the config once: the manifest is written without its
``config`` member, which is the payload's own ``config`` and is put back
on reading. A payload whose manifest still carries it (written before)
reads the same.

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

from ..instrument.provenance import config_dict, config_hash
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
    """Serialize a ``Result`` to the JSON payload stored on disk.

    The manifest's ``config`` is left out when it is the payload's own
    (``payload_to_result`` puts it back), so the config is stored once.
    """
    config = config_to_payload(result.config)
    manifest = result.manifest
    if manifest is not None and manifest.get("config") == config:
        manifest = dict(manifest)
        del manifest["config"]
    payload = {
        "schema": PAYLOAD_SCHEMA,
        "config": config,
        "energy_breakdown": dict(result.energy_breakdown),
        "manifest": manifest,
    }
    for name in _METRIC_FIELDS:
        payload[name] = getattr(result, name)
    return payload


def result_to_text(result) -> str:
    """A ``Result``'s payload in the canonical text form sealed records
    carry — encoded once, handed to the store and the journal alike."""
    return canonical_json(result_to_payload(result))


def payload_to_result(payload: dict, config=None):
    """Rebuild the ``Result`` a payload was serialized from.

    The returned dataclass is field-equal to the original (bit-identical
    metrics) and its manifest equals the original's; ``monitor_report``
    is always ``None`` because checked runs are never stored.

    With ``config`` (the ``ExperimentConfig`` the caller asked for) the
    ``Result`` carries that very object, and the payload must prove it
    is that config's: its manifest's ``config_sha256`` must be
    ``config_hash(config)``, a memo lookup for a frozen config. Without
    ``config`` it is rebuilt from the payload. A payload this cannot
    answer from — another schema, another config's, malformed — raises
    ``ValueError``.
    """
    from ..harness.experiment import Result
    try:
        if payload.get("schema") != PAYLOAD_SCHEMA:
            raise ValueError(
                f"unknown result payload schema: {payload.get('schema')!r}")
        manifest = payload.get("manifest")
        if config is None:
            config = payload_to_config(payload["config"])
        elif (not isinstance(manifest, dict)
              or manifest.get("config_sha256") != config_hash(config)):
            raise ValueError("result payload is not the asked config's")
        if manifest is not None and "config" not in manifest:
            manifest = {**manifest, "config": payload["config"]}
        metrics = {name: payload[name] for name in _METRIC_FIELDS}
        return Result(
            config=config,
            energy_breakdown=dict(payload["energy_breakdown"]),
            manifest=manifest,
            monitor_report=None,
            **metrics,
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed result payload: {exc!r}") from exc
