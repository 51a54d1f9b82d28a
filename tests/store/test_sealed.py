"""The sealed record against hostile files (ROADMAP item 6, file half).

One layout (``repro.store.sealed``) backs store entries, journal lines
and telemetry lines, so one property is checked on all three readers:
whatever happens to the bytes of a record — cut short at any offset, any
single byte changed — the read yields either the original payload or
nothing (``None`` / a skipped line / a quarantined entry). It never
raises and never yields a different payload.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.store import (ResultStore, SweepJournal, canonical_json,
                         payload_checksum, result_to_payload, seal, unseal)
from repro.telemetry import TelemetryWriter, read_stream

KEY = "ab" + "0" * 62
FIRST = {"schema": "repro.result-payload/1", "value": 1}


@pytest.fixture(scope="module")
def payload():
    """A real result payload: nested config, floats, a manifest."""
    cfg = ExperimentConfig(topology="mesh", kx=2, ky=2, concentration=1,
                           routing="xy", pattern="uniform", rate=0.05,
                           synth_cycles=60, synth_warmup=10, seed=3)
    return json.loads(canonical_json(result_to_payload(run_experiment(cfg))))


def _mutations(record: bytes):
    """Every proper prefix of ``record``, then every single-byte change
    (low bit, case bit, all bits)."""
    for cut in range(len(record)):
        yield record[:cut]
    for at in range(len(record)):
        for mask in (0x01, 0x20, 0xFF):
            yield record[:at] + bytes([record[at] ^ mask]) + record[at + 1:]


class TestStoreEntry:
    def test_every_truncation_and_flip_is_a_miss_or_the_original(
            self, tmp_path, payload):
        store = ResultStore(str(tmp_path / "store"))
        path = store.put(KEY, payload, label="hostile")
        with open(path, "rb") as fh:
            record = fh.read()
        survived = stale = 0
        for damaged in _mutations(record):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(damaged)
            got = store.get(KEY)
            if got is None:
                # Quarantined (moved aside), never left to be re-read —
                # unless the change spelled another schema version,
                # which is a stale entry and stays for put/gc.
                if os.path.exists(path):
                    assert store.verify()["stale"] == [KEY]
                    stale += 1
            else:
                assert got == payload
                survived += 1
        # Only damage outside the payload and the checks can survive:
        # the trailing newline and envelope fields nothing reads back.
        assert survived < len(record) // 10
        assert stale == 1  # "store-entry/2" -> "store-entry/3"
        store.entries(), store.verify(), store.gc()  # none of it raises


class TestJournalLine:
    def test_damaged_last_line_is_skipped_or_the_original(self, tmp_path,
                                                          payload):
        path = str(tmp_path / "sweep.journal")
        with SweepJournal(path) as journal:
            journal.append("first", FIRST)
            journal.append(KEY, payload)
        with open(path, "rb") as fh:
            first, last = fh.read().splitlines(keepends=True)
        for damaged in _mutations(last):
            with open(path, "wb") as fh:
                fh.write(first + damaged)
            loaded = SweepJournal(path).load()
            assert loaded.pop("first") == FIRST  # earlier lines trusted
            # At most the one record, intact; a flip inside the key can
            # only rename it, never alter what it carries.
            assert all(got == payload for got in loaded.values())
            assert len(loaded) <= 1


class TestTelemetryLine:
    def test_damaged_line_is_skipped_or_the_original(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        body = {"ev": "point", "idx": 3, "dur_s": 0.25, "label": "a/b@0.1",
                "backoff_s": [0.5, 1.0], "stats": {"hits": 1}}
        with TelemetryWriter(path) as writer:
            writer.write(body)
        with open(path, "rb") as fh:
            record = fh.read()
        for damaged in _mutations(record):
            with open(path, "wb") as fh:
                fh.write(damaged + b"\n")
            assert read_stream(path) in ([], [body])


# JSON-able values plus what ``default=str`` lets through (tuples, sets
# of nothing JSON knows, arbitrary objects) and awkward text.
_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False) | st.text()
            | st.builds(complex, st.integers(0, 9), st.integers(0, 9))
            | st.binary(max_size=4))
_payloads = st.dictionaries(
    st.text(max_size=6),
    st.recursive(_scalars,
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                 max_leaves=12),
    max_size=4)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(payload=_payloads, label=st.none() | st.text(max_size=12))
    def test_unseal_inverts_seal(self, payload, label):
        text = canonical_json(payload)
        envelope = {"schema": "test/1", "key": KEY, "label": label}
        line = seal(envelope, text)
        assert "\n" not in line
        got = unseal(line, "test/1")
        assert got is not None
        got_envelope, got_payload, got_text = got
        assert got_text == text
        assert got_payload == json.loads(text)
        assert got_envelope == {**envelope,
                                "sha256": payload_checksum(payload)}
        assert unseal(line.encode("utf-8") + b"\n", "test/1") == got
        assert unseal(line, "test/2") is None
        # Still one ordinary JSON object per line for any other tool.
        assert json.loads(line)["payload"] == got_payload

    def test_store_hands_back_the_canonical_text(self, tmp_path, payload):
        store = ResultStore(str(tmp_path / "store"))
        store.put(KEY, payload)
        assert store.get_with_text(KEY) == (payload, canonical_json(payload))
