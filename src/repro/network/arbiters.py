"""The rotation rule of the separable switch allocator's arbiters.

Round robin, as in most NoC router implementations: the highest
priority is the requester just after the most recent grant, which makes
it starvation-free under persistent requests. An arbiter's whole state is
that one pointer; the router keeps one int per input port (over its VCs)
and one per output port (over the input ports), as the array cores'
``kernel.c`` keeps ``in_arb_next`` / ``out_arb_next``, and moves it to
``grant + 1`` (wrapping) after every grant.

Requests are an integer bitmask (bit ``i`` set means requester ``i``
wants the resource), so no per-cycle candidate list is built.
"""

from __future__ import annotations


def round_robin(mask: int, nxt: int, size: int) -> int | None:
    """The requester of ``mask`` granted when ``nxt`` has the highest
    priority among ``size``; None when nothing requests.

    The mask is rotated so the priority position lands on bit 0 and the
    lowest set bit is isolated (``rot & -rot``) -- no per-requester scan.
    """
    if not mask:
        return None
    if mask >> size:
        raise ValueError(
            f"request mask {mask:#x} out of range for size {size}")
    rot = ((mask >> nxt) | (mask << (size - nxt))) & ((1 << size) - 1)
    grant = (rot & -rot).bit_length() - 1 + nxt
    return grant - size if grant >= size else grant
