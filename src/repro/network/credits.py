"""Credit-based virtual-channel flow control (Dally, 1992).

Each output port of a router tracks, per downstream VC, how many free buffer
slots remain at the matching downstream input VC. Sending a flit consumes one
credit; the downstream router returns a credit when the flit leaves (or
bypasses) its buffer. Credit return travels on a dedicated back channel with
a configurable delay.

Credit failures raise :class:`CreditError`, a structured
:class:`~repro.core.violation.InvariantViolation` carrying the
(router, port, vc) the counter guards — wired in at construction via
``where`` — so an under/overflow deep inside a run names the exact edge.
The cycle is filled in by the call sites that know it (routers, NICs).
"""

from __future__ import annotations

from collections import deque

from ..core.violation import InvariantViolation


class CreditError(InvariantViolation):
    """Credit under/overflow: a flow-control invariant was violated."""


class CreditCounter:
    """Credits for one (output port, VC) pair.

    ``where`` is the optional ``(router, port, vc)`` of the downstream
    input VC this counter mirrors (``router == -1`` for NIC-side edges,
    with ``port`` the terminal id); it only feeds error context and costs
    nothing on the hot path.
    """

    __slots__ = ("limit", "count", "where")

    def __init__(self, limit: int,
                 where: tuple[int, int, int] | None = None):
        if limit < 1:
            raise ValueError(f"credit limit must be >= 1, got {limit}")
        self.limit = limit
        self.where = where
        self.reset()

    def reset(self) -> None:
        """Initial state: every downstream slot free."""
        self.count = self.limit

    @property
    def available(self) -> bool:
        return self.count > 0

    def _violation(self, rule: str, message: str, expected,
                   actual) -> CreditError:
        router = port = vc = None
        if self.where is not None:
            router, port, vc = self.where
        return CreditError(rule, message, router=router, port=port, vc=vc,
                           expected=expected, actual=actual)

    def consume(self) -> None:
        if self.count <= 0:
            raise self._violation(
                "credit_underflow", "credit consumed with zero credits",
                expected=">= 1", actual=self.count)
        self.count -= 1

    def restore(self) -> None:
        if self.count >= self.limit:
            raise self._violation(
                "credit_overflow",
                f"credit restored beyond limit {self.limit}",
                expected=f"< {self.limit}", actual=self.count)
        self.count += 1


class CreditChannel:
    """Delay line carrying (vc,) credit returns upstream.

    ``send(vc, now)`` enqueues a credit; ``deliver(now)`` yields every vc
    whose credit has arrived by cycle ``now``.
    """

    __slots__ = ("delay", "_inflight")

    def __init__(self, delay: int = 1):
        if delay < 0:
            raise ValueError("credit delay must be >= 0")
        self.delay = delay
        self.reset()

    def reset(self) -> None:
        """Initial state: no credit in flight."""
        self._inflight: deque[tuple[int, int]] = deque()

    def send(self, vc: int, now: int) -> None:
        self._inflight.append((now + self.delay, vc))

    def deliver(self, now: int):
        out = []
        q = self._inflight
        while q and q[0][0] <= now:
            out.append(q.popleft()[1])
        return out

    def pending(self) -> int:
        return len(self._inflight)

    def next_due(self) -> int:
        """Arrival cycle of the earliest in-flight credit."""
        if not self._inflight:
            raise IndexError("next_due() on empty credit channel")
        return self._inflight[0][0]
