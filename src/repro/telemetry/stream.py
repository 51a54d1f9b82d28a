"""Checksummed JSONL telemetry stream: append-only writer, tailing reader.

The stream uses the exact durability discipline of the PR 5 checkpoint
journal (``repro.store.journal``): one sealed record per line
(``repro.store.sealed``, layout in ``docs/ARCHITECTURE.md``) — the
record body is the payload, under a SHA-256 of its bytes as written —
flushed as it is written. A writer killed mid-append (SIGKILL, OOM)
leaves at worst one torn final line; readers skip lines that fail to
unseal and trust everything before them.

Two things differ from the journal, both because telemetry is *shared*
rather than owned:

* The file is opened in append mode by every writer — POSIX ``O_APPEND``
  makes small single-``write`` lines atomic, so the scheduler process
  and its forked workers interleave whole lines, never torn ones.
* Lines are flushed but not fsync'd per record (a sweep emits a few
  lines per point; fsync each would serialize workers on the disk).
  Flushing hands the bytes to the kernel, which survives the *process*
  being SIGKILLed — the crash contract telemetry needs — just not a
  kernel panic, which is the journal's stronger, costlier guarantee.

:class:`TailReader` is the consuming half: it follows a file that
another process may still be appending to, consuming only complete
(newline-terminated) lines and buffering a trailing partial line until
its newline arrives, so a concurrent reader never misparses a torn
write. It is schema-agnostic via the ``parse`` callback — ``repro top``
uses it to follow checkpoint journals too.
"""

from __future__ import annotations

import os

from ..store.sealed import canonical_json, seal, unseal

#: Line schema tag; bump when the record fields change meaning.
SCHEMA = "repro.telemetry/2"


def parse_telemetry_line(line: bytes | str) -> dict | None:
    """Validate one stream line; the record body, or ``None`` if bad.

    Bad means whatever ``unseal`` rejects — a torn line, a different
    schema tag, a checksum that does not match the body bytes — exactly
    the journal's load discipline, plus a body that is not an object.
    The returned dict is the record *body* (the sealed payload; schema
    and checksum envelope stripped).
    """
    record = unseal(line, SCHEMA)
    if record is None or not isinstance(record.payload, dict):
        return None
    return record.payload


class TelemetryWriter:
    """Append checksummed records to one stream file, a line at a time.

    The file handle opens lazily in append mode on the first
    :meth:`write` (so constructing a writer is free and multiple
    processes can hold writers on one path), and every line is flushed
    before ``write`` returns — a record either made it to the kernel
    whole or its line is torn and readers will skip it.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._fh = None

    def write(self, record: dict) -> None:
        """Durably append one record (checksum envelope added here)."""
        if self._fh is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(seal({"schema": SCHEMA}, canonical_json(record))
                       + "\n")
        self._fh.flush()

    def sync(self) -> None:
        """fsync the stream (sweep boundaries want the stronger promise)."""
        if self._fh is not None:
            os.fsync(self._fh.fileno())

    def truncate(self) -> None:
        """Start the stream over (a fresh, non-resumed sweep)."""
        self.close()
        if os.path.exists(self.path):
            os.remove(self.path)

    def close(self) -> None:
        """Close the append handle (safe to call repeatedly)."""
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TelemetryWriter":
        """Context-manager entry: the writer itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the append handle."""
        self.close()


class TailReader:
    """Incrementally follow a stream file another process is appending.

    Each :meth:`poll` reads everything appended since the last poll and
    returns the newly completed, valid records. Only complete
    (newline-terminated) lines are consumed; a trailing partial line is
    buffered until its newline shows up, so following a live writer
    never misparses a torn append. A file that shrinks (truncated and
    restarted by a fresh sweep) resets the reader to the top.

    ``parse`` maps one line (bytes, newline stripped) to a record or
    ``None`` (skip); the default understands :data:`SCHEMA` lines. Pass
    a different callback to follow other line-oriented formats
    (``repro top`` follows checkpoint journals this way).
    """

    def __init__(self, path: str, parse=parse_telemetry_line):
        self.path = str(path)
        self.parse = parse
        self._offset = 0
        self._partial = b""

    def poll(self) -> list[dict]:
        """Records newly completed since the last poll (maybe empty)."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                if size < self._offset:
                    self._offset, self._partial = 0, b""  # fresh stream
                fh.seek(self._offset)
                data = fh.read()
        except OSError:
            return []  # not created yet (sweep hasn't started)
        self._offset += len(data)
        buffer = self._partial + data
        records: list[dict] = []
        while True:
            newline = buffer.find(b"\n")
            if newline < 0:
                break
            line, buffer = buffer[:newline], buffer[newline + 1:]
            record = self.parse(line)
            if record is not None:
                records.append(record)
        self._partial = buffer
        return records


def read_stream(path: str) -> list[dict]:
    """Every valid record currently in a stream file (one-shot read)."""
    return TailReader(path).poll()
