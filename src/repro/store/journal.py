"""Append-only sweep checkpoint journal (the ``--resume`` file).

The scheduler journals every completed point *as it lands*: one sealed
record per line (``repro.store.sealed``, layout in
``docs/ARCHITECTURE.md``), flushed and fsync'd, carrying the point's
store key and its serialized result payload under a SHA-256 of the
payload bytes as written. A process killed mid-sweep (SIGKILL, OOM)
therefore leaves a journal whose last line is at worst torn — and
``load`` tolerates exactly that: lines that fail to unseal are skipped,
everything before them is trusted.

Resume is deterministic because keys are content-addressed (config hash
+ code-version salt + seed): a journaled point is *the* result its
config produces, so merging journal entries with freshly simulated ones
is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import os

from .sealed import canonical_json, seal, unseal

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


class SweepJournal:
    """One checkpoint file: append completed points, load them on resume."""

    def __init__(self, path: str):
        self.path = str(path)
        self._fh = None

    def records(self) -> dict[str, tuple[dict, str]]:
        """Parse the journal into ``{key: (payload, text)}``, skipping
        bad lines.

        Torn trailing lines (a writer killed mid-append) and lines whose
        checksum does not match their payload bytes are dropped silently
        — a resumed sweep recomputes those points. Duplicate keys keep
        the last occurrence.
        """
        completed: dict[str, tuple[dict, str]] = {}
        try:
            with open(self.path, "rb") as fh:
                for line in fh:
                    parsed = parse_line(line)
                    if parsed is not None:
                        completed[parsed[0]] = parsed[1:]
        except FileNotFoundError:
            pass
        return completed

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
        if self._fh is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(seal({"schema": SCHEMA, "key": key}, text) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def truncate(self) -> None:
        """Start the journal over (a fresh, non-resumed run)."""
        self.close()
        if os.path.exists(self.path):
            os.remove(self.path)

    def close(self) -> None:
        """Close the append handle (safe to call repeatedly)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        """Context-manager entry: the journal itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the append handle."""
        self.close()
