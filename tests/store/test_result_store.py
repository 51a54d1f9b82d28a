"""Durability tests for the content-addressed result store.

The trust model under test (``DESIGN.md`` §11): atomic first-writer-wins
puts, checksum-verified reads that quarantine (never trust, never
silently delete) corrupt entries, gc that only reclaims what can no
longer be addressed, and export bundles that carry only valid entries.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.store import ResultStore, payload_checksum
from repro.store.result_store import ENTRY_SCHEMA, EXPORT_SCHEMA

PAYLOAD = {"schema": "repro.result-payload/1", "value": 42,
           "nested": {"pi": 3.14159}}
KEY = "ab" + "0" * 62
OTHER_KEY = "cd" + "1" * 62


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


class TestPutGet:
    def test_round_trip(self, store):
        store.put(KEY, PAYLOAD, label="fig12 point")
        assert store.get(KEY) == PAYLOAD
        assert store.stats["puts"] == 1
        assert store.stats["hits"] == 1

    def test_miss_returns_none(self, store):
        assert store.get(KEY) is None
        assert store.stats["misses"] == 1

    def test_first_writer_wins(self, store):
        store.put(KEY, PAYLOAD)
        store.put(KEY, {"schema": "x", "value": "loser"})
        assert store.get(KEY) == PAYLOAD
        assert store.stats["redundant"] == 1

    def test_contains(self, store):
        assert KEY not in store
        store.put(KEY, PAYLOAD)
        assert KEY in store

    def test_entry_envelope_carries_checksum_and_version(self, store):
        path = store.put(KEY, PAYLOAD, kind="result", label="lbl")
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        assert entry["schema"] == ENTRY_SCHEMA
        assert entry["key"] == KEY
        assert entry["label"] == "lbl"
        assert entry["payload_sha256"] == payload_checksum(PAYLOAD)

    def test_entry_bytes_are_pinned(self, store, monkeypatch):
        """The file ``put`` writes, byte for byte: one line of key-sorted
        JSON (ASCII-escaped, ``", "`` / ``": "`` separators, floats by
        ``repr``, tuples as arrays) and a trailing newline."""
        monkeypatch.delenv("REPRO_STORE_SALT", raising=False)
        monkeypatch.setattr("repro.store.result_store.time.time",
                            lambda: 1700000000.9)
        payload = dict(PAYLOAD, when=(1, 2.5), nan=float("nan"))
        path = store.put(KEY, payload, label="lbl \u00e9")
        with open(path, "rb") as fh:
            assert fh.read() == (
                b'{"code_version": "pc-sim-1", "created_unix": 1700000000, '
                b'"key": "' + KEY.encode() + b'", "kind": "result", '
                b'"label": "lbl \\u00e9", "payload": {"nan": NaN, '
                b'"nested": {"pi": 3.14159}, '
                b'"schema": "repro.result-payload/1", "value": 42, '
                b'"when": [1, 2.5]}, "payload_sha256": "6fc17c59a2d6cc09bab1'
                b'd0bc05a1db78d563eac60d23fe9086e52a430baf86f4", '
                b'"schema": "repro.store-entry/1"}\n')

    def test_no_tmp_debris_after_put(self, store):
        store.put(KEY, PAYLOAD)
        assert os.listdir(store.tmp_dir) == []


class TestCorruption:
    def _corrupt(self, store, key, text):
        path = store._entry_path(key)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def test_flipped_payload_is_quarantined_not_trusted(self, store):
        path = store.put(KEY, PAYLOAD)
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        entry["payload"]["value"] = 43  # bit rot / tampering
        self._corrupt(store, KEY, json.dumps(entry))
        assert store.get(KEY) is None  # recompute, don't trust
        assert store.stats["quarantined"] == 1
        assert KEY not in store  # moved aside...
        assert len(os.listdir(store.quarantine_dir)) == 1  # ...not deleted

    def test_truncated_entry_is_quarantined(self, store):
        path = store.put(KEY, PAYLOAD)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        self._corrupt(store, KEY, text[:len(text) // 2])
        assert store.get(KEY) is None
        assert len(os.listdir(store.quarantine_dir)) == 1

    def test_key_mismatch_is_quarantined(self, store):
        store.put(KEY, PAYLOAD)
        path = store._entry_path(KEY)
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        entry["key"] = OTHER_KEY  # entry filed under the wrong name
        self._corrupt(store, KEY, json.dumps(entry))
        assert store.get(KEY) is None

    def test_recompute_after_quarantine_repopulates(self, store):
        store.put(KEY, PAYLOAD)
        self._corrupt(store, KEY, "not json at all")
        assert store.get(KEY) is None
        store.put(KEY, PAYLOAD)  # the recomputed result
        assert store.get(KEY) == PAYLOAD


class TestVerify:
    def test_clean_store(self, store):
        store.put(KEY, PAYLOAD)
        store.put(OTHER_KEY, PAYLOAD)
        assert store.verify() == {"checked": 2, "ok": 2, "quarantined": []}

    def test_bad_entry_is_reported_and_quarantined(self, store):
        store.put(KEY, PAYLOAD)
        store.put(OTHER_KEY, PAYLOAD)
        with open(store._entry_path(KEY), "w", encoding="utf-8") as fh:
            fh.write("garbage")
        report = store.verify()
        assert report["ok"] == 1
        assert report["quarantined"] == [KEY]
        assert KEY not in store


class TestGc:
    def test_stale_salt_entries_are_removed(self, store, monkeypatch):
        store.put(KEY, PAYLOAD)
        monkeypatch.setenv("REPRO_STORE_SALT", "pc-sim-future")
        removed = store.gc()
        assert removed["stale_version"] == 1
        assert store.keys() == []

    def test_expired_entries_are_removed(self, store):
        path = store.put(KEY, PAYLOAD)
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        now = entry["created_unix"] + 10 * 86400
        removed = store.gc(older_than_s=86400, now=now)
        assert removed["expired"] == 1
        assert store.keys() == []

    def test_fresh_entries_survive(self, store):
        store.put(KEY, PAYLOAD)
        removed = store.gc(older_than_s=86400)
        assert removed == {"stale_version": 0, "expired": 0, "tmp": 0,
                           "quarantine": 0}
        assert store.keys() == [KEY]

    def test_debris_is_swept(self, store):
        with open(os.path.join(store.tmp_dir, "x.tmp"), "w") as fh:
            fh.write("half a write")
        with open(os.path.join(store.quarantine_dir, "y.json"), "w") as fh:
            fh.write("inspected")
        removed = store.gc()
        assert removed["tmp"] == 1
        assert removed["quarantine"] == 1


class TestExport:
    def test_bundle_carries_valid_entries_only(self, store, tmp_path):
        store.put(KEY, PAYLOAD)
        store.put(OTHER_KEY, PAYLOAD)
        with open(store._entry_path(KEY), "w", encoding="utf-8") as fh:
            fh.write("garbage")
        out = store.export(str(tmp_path / "bundle.json"))
        with open(out, encoding="utf-8") as fh:
            bundle = json.load(fh)
        assert bundle["schema"] == EXPORT_SCHEMA
        assert bundle["entry_count"] == 1
        assert bundle["entries"][0]["key"] == OTHER_KEY

    def test_key_restriction(self, store, tmp_path):
        store.put(KEY, PAYLOAD)
        store.put(OTHER_KEY, PAYLOAD)
        out = store.export(str(tmp_path / "bundle.json"), [KEY])
        with open(out, encoding="utf-8") as fh:
            bundle = json.load(fh)
        assert [e["key"] for e in bundle["entries"]] == [KEY]


class TestConcurrency:
    def test_concurrent_writers_one_key_leave_one_valid_entry(self, store):
        keys = [f"{i:02x}" + "f" * 62 for i in range(8)]

        def hammer(worker: int):
            for key in keys:
                store.put(key, PAYLOAD)
            return worker

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        # Every key readable, checksum-valid, exactly once; no debris.
        assert store.keys() == sorted(keys)
        for key in keys:
            assert store.get(key) == PAYLOAD
        assert os.listdir(store.tmp_dir) == []
        assert store.verify()["quarantined"] == []
        assert store.stats["puts"] + store.stats["redundant"] == 64

    def test_stats_reset(self, store):
        store.put(KEY, PAYLOAD)
        store.get(KEY)
        store.reset_stats()
        assert all(v == 0 for v in store.stats.values())
        snap = store.stats_dict()
        assert snap["dir"] == store.root
