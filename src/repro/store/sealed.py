"""The sealed record: the one on-disk form of "a payload you can trust".

Store entries, journal lines and telemetry lines are all the same
thing — a small envelope around a JSON payload that must come back
exactly as written or not at all. This module is the only definition
of that layout::

    {"schema":"<tag>",<envelope fields>,"sha256":"<64 hex>","payload":<text>}

One line of compact JSON. The envelope members come first (``schema``
leads, the digest closes it), and the last member is the payload's
*canonical text* (:func:`canonical_json`) spliced in verbatim. The
digest is ``sha256`` over exactly those payload bytes as stored, so a
reader verifies by hashing a slice of the line — no decode, no
re-encode — and every flipped, missing or extra byte in the payload
region fails the check, including whitespace and key order a
re-canonicalising reader would forgive.

:func:`seal` builds a line from an envelope and a payload text the
caller canonicalised once (and may hand to several records);
:func:`unseal` is its strict inverse and the only reader.

The two append-only logs — the checkpoint journal and the telemetry
stream — are files of such lines, and share one writer and one reader:

* :class:`SealedWriter` opens lazily in append mode (creating the
  directory) and writes each line whole in one ``write``, flushed. POSIX
  ``O_APPEND`` keeps concurrent writers' lines whole, so a scheduler and
  its forked workers can share one stream; a writer killed mid-append
  leaves at worst one torn final line. The journal fsyncs every line;
  the stream only at close (a flush already survives the *process*
  being killed, which is all telemetry promises).
* :class:`TailReader` reads what was appended since its last poll and
  parses complete lines, skipping what fails. Following a live writer it
  holds a final line back until its newline arrives; a one-shot read
  (:func:`read_sealed`) takes it, so a valid last line that lost only
  its newline is kept.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import NamedTuple

#: Structural bytes between the digest and the payload text. A ``"`` is
#: always escaped inside a JSON string, so these raw bytes can only occur
#: between members, and the envelope (scalar fields only) has no other
#: ``payload`` member: the first occurrence is the splice point.
_PAYLOAD_MARK = b'","payload":'
_DIGEST_LEN = 64


class Sealed(NamedTuple):
    """What :func:`unseal` hands back from one trustworthy line."""

    envelope: dict  #: the members before the payload, digest included
    payload: object  #: the decoded payload
    text: str  #: the verified canonical text ``payload`` was decoded from


def canonical_json(payload) -> str:
    """The canonical JSON text checksums are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)


def payload_checksum(payload) -> str:
    """SHA-256 hex digest of a payload's canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def seal(envelope: dict, text: str) -> str:
    """One sealed line (no newline) around canonical payload ``text``.

    ``envelope`` is a flat dict of scalars starting with ``schema``;
    the digest and the payload are appended here.
    """
    head = json.dumps(envelope, separators=(",", ":"), default=str)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return f'{head[:-1]},"sha256":"{digest}","payload":{text}}}'


def unseal(line: bytes | str, schema: str) -> Sealed | None:
    """The :class:`Sealed` contents of a sealed ``schema`` line, else
    ``None``.

    The payload bytes are cut out of the line and hashed against the
    stored digest *before* anything is decoded; then envelope and
    payload are decoded once each. ``None`` covers every way a record
    can be untrustworthy — torn, garbled, re-encoded, another schema —
    and nothing here raises on hostile bytes.
    """
    if isinstance(line, str):
        line = line.encode("utf-8", "replace")
    line = line.strip()
    cut = line.find(_PAYLOAD_MARK)
    if cut < 0 or not line.endswith(b"}"):
        return None
    body = line[cut + len(_PAYLOAD_MARK):-1]
    digest = hashlib.sha256(body).hexdigest()
    if line[cut - _DIGEST_LEN:cut] != digest.encode("ascii"):
        return None
    try:
        text = body.decode("utf-8")
        envelope = json.loads(line[:cut + 1].decode("utf-8") + "}")
        payload = json.loads(text)
    except (ValueError, RecursionError):
        return None
    if (not isinstance(envelope, dict) or envelope.get("schema") != schema
            or envelope.get("sha256") != digest):
        return None
    return Sealed(envelope, payload, text)


class SealedWriter:
    """Append sealed lines to one file; ``sync_each`` fsyncs every line
    (the journal), else the file is fsync'd at :meth:`close`."""

    def __init__(self, path: str, sync_each: bool = False):
        self.path = str(path)
        self.sync_each = sync_each
        self._fh = None

    def append_line(self, envelope: dict, text: str) -> None:
        """Append ``seal(envelope, text)`` as one flushed line."""
        fh = self._fh
        if fh is None:
            os.makedirs(os.path.dirname(os.path.abspath(self.path)),
                        exist_ok=True)
            fh = self._fh = open(self.path, "a", encoding="utf-8")
        fh.write(seal(envelope, text) + "\n")
        fh.flush()
        if self.sync_each:
            os.fsync(fh.fileno())

    def sync(self) -> None:
        """fsync what was appended so far."""
        if self._fh is not None:
            os.fsync(self._fh.fileno())

    def truncate(self) -> None:
        """Start the file over (a fresh, non-resumed run)."""
        self.close()
        if os.path.exists(self.path):
            os.remove(self.path)

    def close(self) -> None:
        """fsync and close the append handle (safe to call repeatedly)."""
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def __enter__(self):
        """Context-manager entry: the writer itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the append handle."""
        self.close()


class TailReader:
    """Follow a file of lines another process may still be appending.

    Each :meth:`poll` reads what was appended since the last one and
    returns the records ``parse`` makes of its complete lines (``parse``
    maps a line's bytes, newline stripped, to a record or ``None`` to
    skip it). A final line without its newline is held until the newline
    arrives, unless ``final``: then nothing more is coming and the line
    is parsed as it stands. A file that shrank (truncated by a fresh run)
    is read again from the top.
    """

    def __init__(self, path: str, parse):
        self.path = str(path)
        self.parse = parse
        self._offset = 0
        self._partial = b""

    def poll(self, final: bool = False) -> list:
        """Records completed since the last poll (maybe none)."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() < self._offset:
                    self._offset, self._partial = 0, b""
                fh.seek(self._offset)
                data = fh.read()
        except OSError:
            return []  # not created yet
        self._offset += len(data)
        lines = (self._partial + data).split(b"\n")
        self._partial = b"" if final else lines.pop()
        parse = self.parse
        return [record for record in map(parse, lines) if record is not None]


def read_sealed(path: str, parse) -> list:
    """Every record ``parse`` makes of a file's lines, read once."""
    return TailReader(path, parse).poll(final=True)
