"""The arbiter of the separable switch allocator.

``RoundRobinArbiter`` is the classic rotating-priority arbiter, as in
most NoC router implementations: the highest priority is the requester
just after the most recent grant, which makes it starvation-free under
persistent requests. The array cores' ``kernel.c`` rotates the same
pointer.

It grants from an integer *request bitmask* (bit ``i`` set means
requester ``i`` wants the resource); the router's allocator collects
requests as masks so no per-cycle candidate lists are built. ``grant``
remains as an iterable-of-indices convenience wrapper over ``grant_mask``
with identical rotation state, so either entry point can be mixed freely.
"""

from __future__ import annotations

from collections.abc import Iterable


def _to_mask(requests: Iterable[int], size: int) -> int:
    mask = 0
    for r in requests:
        if not 0 <= r < size:
            raise ValueError(
                f"request {r} out of range for arbiter size {size}")
        mask |= 1 << r
    return mask


class RoundRobinArbiter:
    """Rotating-priority arbiter over ``size`` requesters."""

    __slots__ = ("size", "_next", "_full")

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("arbiter size must be >= 1")
        self.size = size
        self._full = (1 << size) - 1
        self.reset()

    def reset(self) -> None:
        """Initial state: requester 0 has the highest priority."""
        self._next = 0

    def grant_mask(self, mask: int) -> int | None:
        """Grant one set bit of ``mask``; returns None when empty.

        Priority rotates so the granted requester becomes lowest priority.
        The highest-priority requester is found by rotating the mask so the
        priority position lands on bit 0 and isolating the lowest set bit
        (``rot & -rot``) — no per-requester scan.
        """
        if not mask:
            return None
        if mask & ~self._full:
            raise ValueError(
                f"request mask {mask:#x} out of range for size {self.size}")
        size = self.size
        n = self._next
        rot = ((mask >> n) | (mask << (size - n))) & self._full
        low = rot & -rot
        cand = low.bit_length() - 1 + n
        if cand >= size:
            cand -= size
        nxt = cand + 1
        self._next = nxt if nxt < size else 0
        return cand

    def grant(self, requests: Iterable[int]) -> int | None:
        """Grant one of ``requests`` (indices); returns None if empty."""
        return self.grant_mask(_to_mask(requests, self.size))
