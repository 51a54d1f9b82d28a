"""Credit-based virtual-channel flow control (Dally, 1992).

Each output port of a router tracks, per downstream VC, how many free
buffer slots remain at the matching downstream input VC (``OutVC.credits``,
at most ``OutVC.limit``). Sending a flit takes one credit; the downstream
router returns it when the flit leaves (or bypasses) its buffer, on the
input port's due-cycle deque (``InputPort.credit_due``), ``credit_delay``
cycles later.

A count moved out of ``[0, limit]`` raises :class:`CreditError`, a
structured :class:`~repro.core.violation.InvariantViolation` carrying the
(router, port, vc) of the edge (``OutVC.where``) and the cycle, so an
under/overflow deep inside a run names the exact edge.
"""

from __future__ import annotations

from ..core.violation import InvariantViolation


class CreditError(InvariantViolation):
    """Credit under/overflow: a flow-control invariant was violated."""


def credit_error(ovc, cycle: int) -> CreditError:
    """The error for ``ovc`` (an ``OutVC``) at the site that found its
    count out of range: underflow when no credit is left to take,
    overflow when a returned credit would pass ``limit``."""
    router, port, vc = ovc.where or (None, None, None)
    count, limit = ovc.credits, ovc.limit
    if count <= 0:
        return CreditError(
            "credit_underflow", "credit consumed with zero credits",
            cycle=cycle, router=router, port=port, vc=vc, expected=">= 1",
            actual=count)
    return CreditError(
        "credit_overflow", f"credit restored beyond limit {limit}",
        cycle=cycle, router=router, port=port, vc=vc,
        expected=f"< {limit}", actual=count)
