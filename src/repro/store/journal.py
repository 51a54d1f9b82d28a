"""Append-only sweep checkpoint journal (the ``--resume`` file).

The scheduler journals every completed point *as it lands*: one sealed
record per line, carrying the point's store key and its serialized
result payload under a SHA-256 of the payload bytes as written. The
writing and reading are ``repro.store.sealed``'s, shared with the
telemetry stream; what is the journal's own is the fsync per line. A
process killed mid-sweep (SIGKILL, OOM) therefore leaves a journal
whose last line is at worst torn — and ``load`` tolerates exactly that:
lines that fail to unseal are skipped, everything before them is
trusted.

Resume is deterministic because keys are content-addressed (config hash
+ code-version salt + seed): a journaled point is *the* result its
config produces, so merging journal entries with freshly simulated ones
is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

from .sealed import SealedWriter, canonical_json, read_sealed, unseal

#: Line schema tag; bump when the journal line fields change meaning.
SCHEMA = "repro.sweep-journal/2"


def parse_line(line: bytes | str) -> tuple[str, dict, str] | None:
    """Validate one journal line; ``(key, payload, text)`` or ``None``.

    This is the single definition of "a trustworthy journal line" — a
    sealed record with the journal's schema tag and a string key; lines
    of any other tag (older journal versions included) are skipped like
    torn ones. ``text`` is the verified canonical form ``payload`` was
    decoded from. ``SweepJournal.records`` applies this to whole files;
    the ``repro top`` follower applies it line-by-line while another
    process is still appending.
    """
    record = unseal(line, SCHEMA)
    if record is None or not isinstance(record.envelope.get("key"), str):
        return None
    return record.envelope["key"], record.payload, record.text


class SweepJournal(SealedWriter):
    """One checkpoint file: append completed points, load them on resume.
    Every line is fsync'd before :meth:`append` returns."""

    def __init__(self, path: str):
        super().__init__(path, sync_each=True)

    def records(self) -> dict[str, tuple[dict, str]]:
        """Parse the journal into ``{key: (payload, text)}``, skipping
        bad lines.

        Torn trailing lines (a writer killed mid-append) and lines whose
        checksum does not match their payload bytes are dropped silently
        — a resumed sweep recomputes those points. Duplicate keys keep
        the last occurrence.
        """
        return {key: (payload, text)
                for key, payload, text in read_sealed(self.path, parse_line)}

    def load(self) -> dict[str, dict]:
        """:meth:`records` without the texts: ``{key: payload}``."""
        return {key: record[0] for key, record in self.records().items()}

    def append(self, key: str, payload: dict) -> None:
        """Durably append one completed point (flush + fsync)."""
        self.append_text(key, canonical_json(payload))

    def append_text(self, key: str, text: str) -> None:
        """:meth:`append` for a payload already in ``canonical_json``
        form — what the scheduler encoded for the store, or what a
        verified read handed back."""
        self.append_line({"schema": SCHEMA, "key": key}, text)
