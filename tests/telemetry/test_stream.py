"""Stream discipline: checksummed lines, torn tails, concurrent follow.

The telemetry stream inherits the checkpoint journal's trust model —
every line carries a schema tag and a SHA-256 over its body, readers
skip anything that fails either — and adds the tail-follow contract:
a reader polling a file another process is appending to must only ever
consume newline-terminated, checksum-valid lines, no matter where the
writer currently is.
"""

import json
import threading

from repro.telemetry import (TailReader, Telemetry, TelemetryWriter,
                             parse_telemetry_line, read_stream)
from repro.telemetry.stream import SCHEMA


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TelemetryWriter(path) as writer:
            writer.write({"ev": "point", "idx": 3, "dur_s": 0.25})
            writer.write({"ev": "sweep_end", "status": "ok"})
        records = read_stream(path)
        assert [r["ev"] for r in records] == ["point", "sweep_end"]
        assert records[0]["idx"] == 3
        # The envelope (schema, sha256) is stripped on read.
        assert records[0] == {"ev": "point", "idx": 3, "dur_s": 0.25}

    def test_lines_carry_schema_and_checksum(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TelemetryWriter(path) as writer:
            writer.write({"ev": "point"})
        raw = json.loads(open(path, encoding="utf-8").read())
        assert raw["schema"] == SCHEMA
        assert len(raw["sha256"]) == 64
        assert raw["payload"] == {"ev": "point"}

    def test_corrupted_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TelemetryWriter(path) as writer:
            writer.write({"ev": "a"})
            writer.write({"ev": "b"})
        lines = open(path, encoding="utf-8").read().splitlines()
        assert '"ev":"a"' in lines[0]
        lines[0] = lines[0].replace('"ev":"a"', '"ev":"tampered"')
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert [r["ev"] for r in read_stream(path)] == ["b"]

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TelemetryWriter(path) as writer:
            writer.write({"ev": "a"})
            writer.write({"ev": "b"})
        text = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text[:-20])  # tear the last line mid-JSON
        assert [r["ev"] for r in read_stream(path)] == ["a"]

    def test_wrong_schema_and_garbage_skipped(self):
        assert parse_telemetry_line("not json at all") is None
        assert parse_telemetry_line('{"schema": "other/1"}') is None
        assert parse_telemetry_line("") is None


class TestTailReader:
    def test_incremental_poll(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        reader = TailReader(path)
        assert reader.poll() == []  # file does not exist yet
        writer = TelemetryWriter(path)
        writer.write({"ev": "a"})
        assert [r["ev"] for r in reader.poll()] == ["a"]
        assert reader.poll() == []  # nothing new
        writer.write({"ev": "b"})
        writer.write({"ev": "c"})
        assert [r["ev"] for r in reader.poll()] == ["b", "c"]
        writer.close()

    def test_partial_line_held_until_newline(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = TelemetryWriter(path)
        writer.write({"ev": "a"})
        writer.close()
        full = open(path, encoding="utf-8").read()
        # Rewrite: one whole line plus the first half of another.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(full + full[:25])
        reader = TailReader(path)
        assert [r["ev"] for r in reader.poll()] == ["a"]
        # Writer finishes the torn line: the reader stitches it whole.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(full[25:])
        assert [r["ev"] for r in reader.poll()] == ["a"]

    def test_truncated_file_resets_reader(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = TelemetryWriter(path)
        writer.write({"ev": "a"})
        writer.write({"ev": "b"})
        writer.close()
        reader = TailReader(path)
        assert len(reader.poll()) == 2
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("")  # a fresh, shorter file: start over
        writer = TelemetryWriter(path)
        writer.write({"ev": "fresh"})
        writer.close()
        assert [r["ev"] for r in reader.poll()] == ["fresh"]

    def test_concurrent_writer_never_misparses(self, tmp_path):
        """A reader polling while a thread appends sees every record
        exactly once, in order, with no torn or invented lines."""
        path = str(tmp_path / "t.jsonl")
        total = 200
        done = threading.Event()

        def write_all():
            writer = TelemetryWriter(path)
            for i in range(total):
                writer.write({"ev": "point", "idx": i})
            writer.close()
            done.set()

        thread = threading.Thread(target=write_all)
        reader = TailReader(path)
        seen = []
        thread.start()
        while not done.is_set():
            seen.extend(reader.poll())
        thread.join()
        seen.extend(reader.poll())
        assert [r["idx"] for r in seen] == list(range(total))


class TestTelemetryEmitter:
    def test_records_are_stamped(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with Telemetry(path) as tel:
            tel.emit("sweep_begin", points=2)
        (record,) = read_stream(path)
        assert record["ev"] == "sweep_begin"
        assert record["points"] == 2
        assert isinstance(record["pid"], int)
        assert isinstance(record["t"], float)
        assert record["sweep"]  # non-empty sweep id

    def test_sweep_ids_are_unique(self, tmp_path):
        ids = {Telemetry(str(tmp_path / f"{i}.jsonl")).sweep
               for i in range(16)}
        assert len(ids) == 16

    def test_truncate_starts_over(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tel = Telemetry(path)
        tel.emit("sweep_begin")
        tel.close()
        tel2 = Telemetry(path)
        tel2.truncate()
        tel2.emit("sweep_begin")
        tel2.close()
        assert len(read_stream(path)) == 1
