"""The telemetry stream file: sealed JSONL records, appended and followed.

Writing and reading are ``repro.store.sealed``'s ``SealedWriter`` and
``TailReader``, shared with the checkpoint journal (line layout in
``docs/ARCHITECTURE.md``). The stream is shared rather than owned — the
scheduler and its forked workers append to one file — so it is fsync'd
at close, not per line. ``repro top`` follows a stream (or, with
another ``parse``, a journal) with :class:`TailReader`;
:func:`read_stream` is the one-shot read.
"""

from __future__ import annotations

from ..store import sealed
from ..store.sealed import SealedWriter, canonical_json, read_sealed, unseal

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


class TelemetryWriter(SealedWriter):
    """Append records to one stream file, a flushed line each; the file
    opens on the first :meth:`write`, so a writer costs nothing until
    then and many processes can hold one on the same path."""

    def write(self, record: dict) -> None:
        """Append one record (checksum envelope added here)."""
        self.append_line({"schema": SCHEMA}, canonical_json(record))


class TailReader(sealed.TailReader):
    """``repro.store.sealed.TailReader``, parsing stream lines unless
    given another ``parse``."""

    def __init__(self, path: str, parse=parse_telemetry_line):
        super().__init__(path, parse)


def read_stream(path: str) -> list[dict]:
    """Every valid record currently in a stream file (one-shot read)."""
    return read_sealed(path, parse_telemetry_line)
