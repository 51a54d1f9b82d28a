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
"""

from __future__ import annotations

import hashlib
import json
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
