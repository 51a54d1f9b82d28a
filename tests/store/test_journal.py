"""Torn-write tolerance tests for the sweep checkpoint journal.

A journal is only useful if the file a SIGKILL leaves behind loads: the
final line may be torn mid-append, earlier lines must survive verbatim.
"""

import json
import os

from repro.store import SweepJournal, canonical_json, seal
from repro.store.journal import SCHEMA, parse_line

V1_LINE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "journal_line_v1.jsonl")


def _payload(n):
    return {"schema": "repro.result-payload/1", "value": n}


class TestRoundTrip:
    def test_append_then_load(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        with SweepJournal(path) as journal:
            journal.append("k1", _payload(1))
            journal.append("k2", _payload(2))
        assert SweepJournal(path).load() == {"k1": _payload(1),
                                            "k2": _payload(2)}

    def test_missing_file_loads_empty(self, tmp_path):
        assert SweepJournal(str(tmp_path / "absent")).load() == {}

    def test_duplicate_key_keeps_last(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        with SweepJournal(path) as journal:
            journal.append("k", _payload(1))
            journal.append("k", _payload(2))
        assert SweepJournal(path).load() == {"k": _payload(2)}

    def test_truncate_starts_over(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        journal = SweepJournal(path)
        journal.append("k", _payload(1))
        journal.truncate()
        journal.append("k2", _payload(2))
        journal.close()
        assert SweepJournal(path).load() == {"k2": _payload(2)}


class TestDamageTolerance:
    def test_torn_final_line_is_dropped(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        with SweepJournal(path) as journal:
            journal.append("k1", _payload(1))
            journal.append("k2", _payload(2))
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(lines[0])
            fh.write(lines[1][:len(lines[1]) // 2])  # killed mid-append
        assert SweepJournal(path).load() == {"k1": _payload(1)}

    def test_checksum_mismatch_is_dropped(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        line = seal({"schema": SCHEMA, "key": "k"},
                    canonical_json(_payload(1)))
        assert parse_line(line)[:2] == ("k", _payload(1))
        with open(path, "w", encoding="utf-8") as fh:  # payload != checksum
            fh.write(line.replace('"value":1', '"value":2') + "\n")
        assert SweepJournal(path).load() == {}

    def test_foreign_schema_and_blank_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        text = canonical_json(_payload(1))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n")
            fh.write(json.dumps({"schema": "other/1", "key": "x"}) + "\n")
            fh.write(seal({"schema": "other/1", "key": "x"}, text) + "\n")
            fh.write(json.dumps(["not", "a", "dict"]) + "\n")
            fh.write(seal({"schema": SCHEMA, "key": "k"}, text) + "\n")
        assert SweepJournal(path).load() == {"k": _payload(1)}

    def test_old_schema_line_is_skipped_like_any_other_tag(self, tmp_path):
        """A real ``repro.sweep-journal/1`` line (``fixtures/``) has no
        reader: ``parse_line`` skips it, lines around it still load."""
        with open(V1_LINE, encoding="utf-8") as fh:
            old = fh.read()
        assert json.loads(old)["schema"] == "repro.sweep-journal/1"
        assert parse_line(old) is None
        path = str(tmp_path / "sweep.journal")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(old)
        with SweepJournal(path) as journal:
            journal.append("k", _payload(1))
        assert SweepJournal(path).load() == {"k": _payload(1)}

    def test_undecodable_bytes_are_skipped_not_raised(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        with SweepJournal(path) as journal:
            journal.append("k1", _payload(1))
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe\x00 not utf-8\n")
        with SweepJournal(path) as journal:
            journal.append("k2", _payload(2))
        assert SweepJournal(path).load() == {"k1": _payload(1),
                                            "k2": _payload(2)}
