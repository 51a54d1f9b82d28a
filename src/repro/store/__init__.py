"""Durable, verifiable execution: result store + sweep checkpoints.

This package gives the harness crash-safe memory (``DESIGN.md`` §11):

* :class:`~repro.store.result_store.ResultStore` — a content-addressed
  on-disk store keyed by ``sha256(config_sha256 : code_version : seed)``,
  with atomic write-rename, checksum-verified reads and quarantine of
  corrupt entries;
* :class:`~repro.store.journal.SweepJournal` — the append-only, torn-line
  tolerant checkpoint file behind ``--resume``;
* :mod:`~repro.store.sealed` — ``seal`` / ``unseal``, the one record
  layout store entries, journal lines and telemetry lines share: the
  checksum covers the payload bytes as stored, so reads verify without
  re-encoding;
* :mod:`~repro.store.serialize` — exact (bit-identical) JSON round-trips
  of ``Result`` dataclasses;
* :mod:`~repro.store.cli` — the ``repro store ls|verify|gc|export``
  maintenance commands.

The fault-tolerant scheduler that drives these lives in
``repro.harness.parallel``; ``repro.harness.experiment`` wires the
in-process run memo through a process-wide default store.
"""

from .journal import SweepJournal
from .result_store import (CODE_VERSION, ResultStore, code_version,
                           document_key, key_from_hash, store_key)
from .sealed import canonical_json, payload_checksum, seal, unseal
from .serialize import (config_to_payload, payload_to_config,
                        payload_to_result, result_to_payload,
                        result_to_text)

__all__ = [
    "CODE_VERSION",
    "ResultStore",
    "SweepJournal",
    "canonical_json",
    "code_version",
    "config_to_payload",
    "document_key",
    "key_from_hash",
    "payload_checksum",
    "payload_to_config",
    "payload_to_result",
    "result_to_payload",
    "result_to_text",
    "seal",
    "store_key",
    "unseal",
]
