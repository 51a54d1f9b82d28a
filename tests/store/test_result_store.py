"""Durability tests for the content-addressed result store.

The trust model under test (``DESIGN.md`` §11): atomic first-writer-wins
puts, checksum-verified reads that quarantine (never trust, never
silently delete) corrupt entries, gc that only reclaims what can no
longer be addressed, and export bundles that carry only valid entries.
"""

import json
import os
import shutil
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.store import ResultStore, payload_checksum
from repro.store.result_store import ENTRY_SCHEMA, EXPORT_SCHEMA

PAYLOAD = {"schema": "repro.result-payload/1", "value": 42,
           "nested": {"pi": 3.14159}}
KEY = "ab" + "0" * 62
OTHER_KEY = "cd" + "1" * 62
V1_ENTRY = os.path.join(os.path.dirname(__file__), "fixtures",
                        "store_entry_v1.json")


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
        assert entry["sha256"] == payload_checksum(PAYLOAD)
        assert entry["payload"] == PAYLOAD

    def test_entry_bytes_are_pinned(self, store, monkeypatch):
        """The file ``put`` writes, byte for byte: one sealed line
        (``docs/ARCHITECTURE.md``) — compact JSON, envelope first in
        declaration order, digest, then the key-sorted ASCII-escaped
        payload (floats by ``repr``, tuples as arrays) — and a trailing
        newline."""
        monkeypatch.delenv("REPRO_STORE_SALT", raising=False)
        monkeypatch.setattr("repro.store.result_store.time.time",
                            lambda: 1700000000.9)
        payload = dict(PAYLOAD, when=(1, 2.5), nan=float("nan"))
        path = store.put(KEY, payload, label="lbl \u00e9")
        with open(path, "rb") as fh:
            assert fh.read() == (
                b'{"schema":"repro.store-entry/2","key":"' + KEY.encode()
                + b'","kind":"result","label":"lbl \\u00e9",'
                b'"code_version":"pc-sim-1","created_unix":1700000000,'
                b'"sha256":"6fc17c59a2d6cc09bab1d0bc05a1db78d563eac60d23'
                b'fe9086e52a430baf86f4","payload":{"nan":NaN,'
                b'"nested":{"pi":3.14159},'
                b'"schema":"repro.result-payload/1","value":42,'
                b'"when":[1,2.5]}}\n')

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
            text = fh.read()
        assert '"value":42' in text
        self._corrupt(store, KEY, text.replace('"value":42', '"value":43'))
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
        path = store.put(OTHER_KEY, PAYLOAD)
        os.makedirs(os.path.dirname(store._entry_path(KEY)))
        os.replace(path, store._entry_path(KEY))  # filed under the wrong name
        assert store.get(KEY) is None
        assert store.stats["quarantined"] == 1

    def test_reencoded_entry_is_quarantined(self, store):
        """The checksum covers the bytes as stored: the same JSON value
        re-serialized (whitespace, key order) is not the record."""
        path = store.put(KEY, PAYLOAD)
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        self._corrupt(store, KEY, json.dumps(entry))
        assert store.get(KEY) is None
        assert store.stats["quarantined"] == 1

    def test_recompute_after_quarantine_repopulates(self, store):
        store.put(KEY, PAYLOAD)
        self._corrupt(store, KEY, "not json at all")
        assert store.get(KEY) is None
        store.put(KEY, PAYLOAD)  # the recomputed result
        assert store.get(KEY) == PAYLOAD


class TestStaleSchema:
    """A real ``repro.store-entry/1`` file (``fixtures/``, written by the
    last commit that had that layout): stale, not corrupt, and unread."""

    @pytest.fixture
    def stale_key(self, store):
        with open(V1_ENTRY, encoding="utf-8") as fh:
            key = json.load(fh)["key"]
        os.makedirs(os.path.dirname(store._entry_path(key)))
        shutil.copy(V1_ENTRY, store._entry_path(key))
        return key

    def test_get_is_a_plain_miss(self, store, stale_key):
        assert store.get(stale_key) is None
        assert store.stats["misses"] == 1
        assert store.stats["quarantined"] == 0
        assert stale_key in store  # left in place for put/gc
        assert os.listdir(store.quarantine_dir) == []

    def test_put_replaces_it(self, store, stale_key):
        store.put(stale_key, PAYLOAD)
        assert store.stats["puts"] == 1
        assert store.stats["redundant"] == 0
        assert store.get(stale_key) == PAYLOAD
        store.put(stale_key, PAYLOAD)  # current schema: first writer wins
        assert store.stats["redundant"] == 1

    def test_gc_reclaims_it_as_stale_version(self, store, stale_key):
        assert store.gc()["stale_version"] == 1
        assert store.keys() == []

    def test_verify_reports_it_stale_and_leaves_it(self, store, stale_key):
        store.put(KEY, PAYLOAD)
        assert store.verify() == {"checked": 2, "ok": 1,
                                  "stale": [stale_key], "quarantined": []}
        assert stale_key in store

    def test_entries_and_export_skip_it(self, store, stale_key, tmp_path):
        assert store.entries() == []
        out = store.export(str(tmp_path / "bundle.json"))
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh)["entry_count"] == 0


class TestVerify:
    def test_clean_store(self, store):
        store.put(KEY, PAYLOAD)
        store.put(OTHER_KEY, PAYLOAD)
        assert store.verify() == {"checked": 2, "ok": 2, "stale": [],
                                  "quarantined": []}

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
