"""Content-addressed on-disk store for experiment results.

Every simulation point is a pure function of its config + seed, so its
result can be cached *durably* under a key derived from the PR 3
provenance hash::

    key = sha256(config_sha256 : code_version : seed)

The code-version salt (:data:`CODE_VERSION`, overridable via the
``REPRO_STORE_SALT`` environment variable) invalidates every entry at
once when the simulator's semantics change — bump it in the same commit
that changes what a config produces. Entries from older salts simply
stop being addressable and are reclaimed by ``gc``.

Durability and trust model:

* **Atomic writes** — payloads are written to a unique temp file and
  ``os.replace``-d into place, so readers (including concurrent writers
  racing on one key) only ever observe complete entries.
* **Verified reads** — every entry is one sealed record
  (``repro.store.sealed``, layout in ``docs/ARCHITECTURE.md``): its
  SHA-256 covers the payload bytes exactly as stored. ``get`` hashes
  them on read; a mismatch (truncated write after power loss, bit rot,
  manual tampering) *quarantines* the entry — moved aside into
  ``quarantine/``, never trusted, never silently deleted — and reports
  a miss so the caller recomputes. So does a valid entry whose payload
  the reader cannot use (``get_with_text``'s ``read``): another config's
  result, or a payload schema this code has no reader for.
* **First writer wins** — ``put`` on an existing key is a no-op; two
  processes computing the same point deterministically produce the same
  payload, so there is nothing to reconcile.
* **Old schemas are stale, not corrupt** — a well-formed entry of
  another ``repro.store-entry/N`` has no reader: ``get`` misses without
  quarantining it, ``put`` replaces it, ``gc`` reclaims it and
  ``verify`` lists it as stale. So does a result whose config this code
  refuses to build (say one stored under a backend since removed):
  nothing can ask for it or read it back.

``python -m repro store ls|verify|gc|export`` exposes the maintenance
surface (see ``repro.store.cli``).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time

from ..instrument.provenance import config_hash
from .sealed import (Sealed, canonical_json, payload_checksum, read_record,
                     seal)
from .serialize import payload_to_config

#: Salt mixed into every store key; bump when simulation semantics change
#: so stale results stop being addressable. ``REPRO_STORE_SALT`` in the
#: environment overrides it (useful to force a cold store in CI).
CODE_VERSION = "pc-sim-1"

#: On-disk entry schema; bump when the envelope fields change meaning.
#: Every version shares the family prefix (see ``_stale_schema``).
_SCHEMA_FAMILY = "repro.store-entry/"
ENTRY_SCHEMA = _SCHEMA_FAMILY + "2"

#: Bundle schema written by :meth:`ResultStore.export`.
EXPORT_SCHEMA = "repro.store-export/1"


def code_version() -> str:
    """The active code-version salt (env ``REPRO_STORE_SALT`` wins)."""
    return os.environ.get("REPRO_STORE_SALT") or CODE_VERSION


def key_from_hash(config_sha256: str, seed) -> str:
    """Store key from an already-computed config hash and a seed."""
    text = f"{config_sha256}:{code_version()}:{seed}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def store_key(config) -> str:
    """Store key for a config (dataclass or dict): provenance hash + salt.

    The config hash already covers the seed; it is salted in a second
    time explicitly so the key derivation matches its documented
    definition even for config types that keep the seed elsewhere. Only
    the config hash is memoized (``provenance.config_hash``); the salt
    is read from the environment on every call.
    """
    seed = (config.get("seed") if isinstance(config, dict)
            else getattr(config, "seed", None))
    return key_from_hash(config_hash(config), seed)


def document_key(doc) -> str:
    """Store key identifying an arbitrary result/metrics JSON document.

    Documents that carry a run manifest (or are one) get the same
    manifest-derived key their stored result would have; anything else
    falls back to a content hash of the document, which is still a
    stable, content-addressed identity for report headers.
    """
    if isinstance(doc, dict):
        manifest = doc if "config_sha256" in doc else doc.get("manifest")
        if isinstance(manifest, dict) and "config_sha256" in manifest:
            return key_from_hash(manifest["config_sha256"],
                                 manifest.get("seed"))
    return payload_checksum(doc)


def _stale_schema(path: str) -> bool:
    """Whether ``path`` holds a well-formed entry of *another* schema
    version. Only the tag is read — there is no reader for old layouts,
    so nothing else in such a file is looked at or trusted."""
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read())
    except (OSError, ValueError):
        return False
    schema = doc.get("schema") if isinstance(doc, dict) else None
    return (isinstance(schema, str) and schema.startswith(_SCHEMA_FAMILY)
            and schema != ENTRY_SCHEMA)


def _unbuildable(entry: Sealed) -> bool:
    """Whether ``entry`` is a result whose payload names a config this
    code refuses to build (a backend or field since removed): no point
    can ask for it, and ``payload_to_result`` could not read it back."""
    payload = entry.payload
    if entry.envelope["kind"] != "result" or not isinstance(
            payload, dict) or "config" not in payload:
        return False
    try:
        payload_to_config(payload["config"])
    except (TypeError, ValueError, KeyError, AttributeError):
        return True
    return False


class ResultStore:
    """Content-addressed result store rooted at one directory.

    Layout::

        <root>/objects/<key[:2]>/<key>.json   one JSON entry per result
        <root>/tmp/                           in-flight atomic writes
        <root>/quarantine/                    entries that failed checksum

    Thread- and process-safe for concurrent writers: writes are atomic
    renames and first-writer-wins, reads verify checksums. Hit/miss/put
    counters accumulate on :attr:`stats` (per instance, not persisted).
    """

    def __init__(self, root: str):
        self.root = str(root)
        self.objects_dir = os.path.join(self.root, "objects")
        self.tmp_dir = os.path.join(self.root, "tmp")
        self.quarantine_dir = os.path.join(self.root, "quarantine")
        for path in (self.objects_dir, self.tmp_dir, self.quarantine_dir):
            os.makedirs(path, exist_ok=True)
        self.stats = {"hits": 0, "misses": 0, "puts": 0, "redundant": 0,
                      "quarantined": 0}

    # -- paths ------------------------------------------------------------

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], key + ".json")

    # -- core API ---------------------------------------------------------

    def put(self, key: str, payload: dict, kind: str = "result",
            label: str | None = None) -> str:
        """Store ``payload`` under ``key``; returns the entry path.

        First writer wins: if the entry already exists the write is
        skipped (counted under ``stats['redundant']``) — identical keys
        imply identical payloads by construction.
        """
        return self.put_text(key, canonical_json(payload), kind, label)

    def put_text(self, key: str, text: str, kind: str = "result",
                 label: str | None = None) -> str:
        """:meth:`put` for a payload already in ``canonical_json`` form
        (the scheduler encodes each point once for store and journal).

        Only a stale-schema file at the key's path is replaced; any
        other existing file keeps first-writer-wins (a corrupt one is
        quarantined by the next read, after which the put goes through).
        """
        path = self._entry_path(key)
        if os.path.exists(path) and not _stale_schema(path):
            self.stats["redundant"] += 1
            return path
        line = seal({"schema": ENTRY_SCHEMA, "key": key, "kind": kind,
                     "label": label, "code_version": code_version(),
                     "created_unix": int(time.time())}, text)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = os.path.join(
            self.tmp_dir,
            f"{key}.{os.getpid()}.{threading.get_ident()}.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
        os.replace(tmp, path)
        self.stats["puts"] += 1
        return path

    def get(self, key: str) -> dict | None:
        """Fetch the payload stored under ``key``, verifying its checksum.

        Returns ``None`` on a miss *and* on corruption — a corrupt entry
        is moved to ``quarantine/`` (never trusted, never deleted) so
        the caller transparently recomputes. A stale-schema entry is a
        plain miss and stays where it is for ``put`` to replace.
        """
        hit = self.get_with_text(key)
        return None if hit is None else hit[0]

    def get_with_text(self, key: str, read=None) -> tuple | None:
        """:meth:`get` plus the verified canonical text the payload was
        decoded from, for callers that re-record it (``journal.append_text``)
        without encoding it again.

        ``read`` maps the payload to what the caller answers with
        (``experiment.resolve`` builds the asked config's ``Result``)
        and is handed back in its place. An entry it refuses with
        ``ValueError`` — another config's payload, one this code cannot
        read — is no answer: it is quarantined like a corrupt one and
        counts as a miss, so the recomputed result is put.
        """
        entry = self._load_entry(key)
        if entry is not None:
            try:
                value = entry.payload if read is None else read(entry.payload)
            except ValueError:
                pass
            else:
                self.stats["hits"] += 1
                return value, entry.text
        path = self._entry_path(key)
        if os.path.exists(path) and not _stale_schema(path):
            self._quarantine(path)
        self.stats["misses"] += 1
        return None

    def __contains__(self, key: str) -> bool:
        """Whether an entry file exists for ``key`` (checksum unverified)."""
        return os.path.exists(self._entry_path(key))

    def _load_entry(self, key: str) -> Sealed | None:
        """Unseal + validate the entry file of ``key``; ``None`` if
        absent or bad. The envelope fields the maintenance commands read
        are checked here, so nothing downstream meets a half-formed
        entry."""
        entry = read_record(self._entry_path(key), ENTRY_SCHEMA)
        if entry is None:
            return None
        envelope = entry.envelope
        if not (envelope.get("key") == key
                and isinstance(envelope.get("kind"), str)
                and isinstance(envelope.get("code_version"), str)
                and isinstance(envelope.get("created_unix"), (int, float))
                and "label" in envelope):
            return None
        return entry

    def _quarantine(self, path: str) -> str:
        """Move a bad entry file aside; returns its quarantine path."""
        target = os.path.join(self.quarantine_dir, os.path.basename(path))
        try:
            os.replace(path, target)
        except OSError:
            pass  # racing reader already moved it
        self.stats["quarantined"] += 1
        return target

    # -- maintenance ------------------------------------------------------

    def keys(self) -> list[str]:
        """Every key with an entry file, sorted (checksums unverified)."""
        out = []
        for shard in sorted(os.listdir(self.objects_dir)):
            shard_dir = os.path.join(self.objects_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            out.extend(name[:-5] for name in sorted(os.listdir(shard_dir))
                       if name.endswith(".json"))
        return out

    def entries(self) -> list[dict]:
        """Envelope metadata (no payload) of every *valid* entry."""
        out = []
        for key in self.keys():
            entry = self._load_entry(key)
            if entry is not None:
                out.append(entry.envelope)
        return out

    def verify(self) -> dict:
        """Checksum every entry; quarantine the bad ones.

        Returns ``{"checked", "ok", "stale": [keys], "quarantined":
        [keys]}`` — the maintenance counterpart of the per-read
        verification ``get`` already performs. Stale-schema entries and
        results whose config this code no longer builds are listed,
        not moved: they are ``gc``'s to reclaim.
        """
        stale, quarantined = [], []
        checked = 0
        for key in self.keys():
            checked += 1
            entry = self._load_entry(key)
            if entry is not None:
                if _unbuildable(entry):
                    stale.append(key)
                continue
            path = self._entry_path(key)
            if _stale_schema(path):
                stale.append(key)
            else:
                self._quarantine(path)
                quarantined.append(key)
        return {"checked": checked,
                "ok": checked - len(stale) - len(quarantined),
                "stale": stale, "quarantined": quarantined}

    def gc(self, older_than_s: float | None = None,
           now: float | None = None) -> dict:
        """Reclaim space: stale salts and schemas, expired entries, debris.

        Removes entries whose ``code_version`` no longer matches the
        active salt or whose schema has no reader any more (neither can
        ever be addressed again; both count as ``stale_version``),
        results whose config this code no longer builds (``unbuildable``:
        no point asks for them, and none could be read back), entries
        older than ``older_than_s`` when given, leftover temp files, and
        quarantined files (already both distrusted and preserved long
        enough to have been inspected). Returns removal counts.
        """
        now = time.time() if now is None else now
        removed = {"stale_version": 0, "unbuildable": 0, "expired": 0,
                   "tmp": 0, "quarantine": 0}
        for key in self.keys():
            path = self._entry_path(key)
            entry = self._load_entry(key)
            if entry is None:
                if _stale_schema(path):
                    os.remove(path)
                    removed["stale_version"] += 1
                continue  # anything else is verify()'s job, not gc's
            envelope = entry.envelope
            if envelope["code_version"] != code_version():
                os.remove(path)
                removed["stale_version"] += 1
            elif _unbuildable(entry):
                os.remove(path)
                removed["unbuildable"] += 1
            elif (older_than_s is not None
                  and now - envelope["created_unix"] > older_than_s):
                os.remove(path)
                removed["expired"] += 1
        for name in os.listdir(self.tmp_dir):
            os.remove(os.path.join(self.tmp_dir, name))
            removed["tmp"] += 1
        for name in os.listdir(self.quarantine_dir):
            os.remove(os.path.join(self.quarantine_dir, name))
            removed["quarantine"] += 1
        return removed

    def export(self, out_path: str, keys: list[str] | None = None) -> str:
        """Bundle entries into one portable JSON document at ``out_path``.

        Only checksum-valid entries are exported; ``keys`` restricts the
        bundle (default: everything).
        """
        wanted = self.keys() if not keys else keys
        entries = []
        for key in wanted:
            entry = self._load_entry(key)
            if entry is not None:
                entries.append({**entry.envelope, "payload": entry.payload})
        bundle = {"schema": EXPORT_SCHEMA, "code_version": code_version(),
                  "entry_count": len(entries), "entries": entries}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        return out_path

    # -- introspection ----------------------------------------------------

    def reset_stats(self) -> None:
        """Zero the per-instance hit/miss/put counters."""
        for key in self.stats:
            self.stats[key] = 0

    def stats_dict(self) -> dict:
        """Counter snapshot plus the store directory, for metrics docs."""
        return {"dir": self.root, **self.stats}

    def stats_delta(self, baseline: dict) -> dict:
        """Counter movement since a ``dict(store.stats)`` snapshot.

        Forked sweep workers inherit the parent's counter values, so a
        worker's own store traffic is its current counters minus the
        snapshot taken when the worker first ran — the quantity harness
        telemetry aggregates across processes into the sweep-report.
        """
        return {key: self.stats[key] - baseline.get(key, 0)
                for key in self.stats}
