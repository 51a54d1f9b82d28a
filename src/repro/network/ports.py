"""Router port structures: input ports, output ports, channel endpoints.

An output port drives one channel; on MECS the channel has several
*endpoints* (drop points), each with its own downstream buffer and therefore
its own per-VC credit counters and VC-allocation state. Point-to-point
channels have exactly one endpoint.
"""

from __future__ import annotations

from ..core.pseudo_circuit import PseudoCircuitRegister
from ..core.speculation import OutputHistory
from .credits import CreditChannel, CreditCounter
from .vc import VirtualChannel


class OutVC:
    """Upstream-side state of one downstream input VC: allocation + credits.

    ``where`` names the downstream ``(router, in_port, vc)`` for credit
    error context (see :class:`~repro.network.credits.CreditCounter`).
    """

    __slots__ = ("credits", "owner")

    def __init__(self, depth: int,
                 where: tuple[int, int, int] | None = None):
        self.credits = CreditCounter(depth, where)
        self._reset_own()

    def reset(self) -> None:
        """Initial state: unallocated, all credits available."""
        self.credits.reset()
        self._reset_own()

    def _reset_own(self) -> None:
        """The registers of this object itself; its parts have their own."""
        # (in_port, in_vc) of the packet currently allocated this VC.
        self.owner: tuple[int, int] | None = None

    @property
    def free(self) -> bool:
        return self.owner is None

    @property
    def credit_count(self) -> int:
        return self.credits.count


class OutEndpoint:
    """One drop point of an output channel, tracked by the upstream
    router."""

    __slots__ = ("router", "in_port", "latency", "ovcs")

    def __init__(self, router: int, in_port: int, latency: int,
                 num_vcs: int, buffer_depth: int):
        self.router = router
        self.in_port = in_port
        self.latency = latency
        self.ovcs = [OutVC(buffer_depth, (router, in_port, v))
                     for v in range(num_vcs)]

    def reset(self) -> None:
        """Initial state of every downstream VC (no state of its own)."""
        for ovc in self.ovcs:
            ovc.reset()

    def restore_credit(self, vc: int) -> None:
        self.ovcs[vc].credits.restore()

    def any_credit(self) -> bool:
        for ovc in self.ovcs:
            if ovc.credits.count > 0:
                return True
        return False


class OutputPort:
    """Output side of a router port: endpoints plus pseudo-circuit history.

    ``st_busy_cycle`` records the cycle in which the crossbar column of this
    port is occupied by a flit in ST (set one cycle ahead for SA grants,
    same-cycle for bypassing flits); ``pc_holder`` is the input port holding
    a valid pseudo-circuit to this output (-1 when none) — the "one circuit
    per output" invariant lives here.
    """

    __slots__ = ("port_id", "endpoints", "sink", "history", "pc_holder",
                 "st_busy_cycle", "is_ejection")

    def __init__(self, port_id: int, endpoints: list[OutEndpoint], sink=None,
                 is_ejection: bool = False):
        self.port_id = port_id
        self.endpoints = endpoints
        # Flit consumer behind the channel: a Network delivery queue for
        # router-to-router channels, a NIC for ejection ports.
        self.sink = sink
        self.history = OutputHistory()
        self.is_ejection = is_ejection
        self._reset_own()

    def reset(self) -> None:
        """Initial state: crossbar column free, no circuit, no history,
        every endpoint's credits restored."""
        for endpoint in self.endpoints:
            endpoint.reset()
        self.history.reset()
        self._reset_own()

    def _reset_own(self) -> None:
        """The registers of this object itself; its parts have their own."""
        self.pc_holder = -1
        self.st_busy_cycle = -1

    def any_credit(self) -> bool:
        for ep in self.endpoints:
            for ovc in ep.ovcs:
                if ovc.credits.count > 0:
                    return True
        return False


class InputPort:
    """Input side of a router port: VCs, pseudo-circuit register, credit
    return channel toward the upstream endpoint."""

    __slots__ = ("port_id", "vcs", "pc", "credit_channel", "upstream",
                 "st_busy_cycle", "last_pair", "last_out")

    def __init__(self, port_id: int, num_vcs: int, buffer_depth: int,
                 credit_delay: int):
        self.port_id = port_id
        self.vcs = [VirtualChannel(v, buffer_depth) for v in range(num_vcs)]
        self.pc = PseudoCircuitRegister()
        self.credit_channel = CreditChannel(credit_delay)
        # OutEndpoint (or NIC injection endpoint) whose credits this port's
        # returns replenish; wired by the Network at build time.
        self.upstream = None
        self._reset_own()

    def reset(self) -> None:
        """Initial state: VCs idle and empty, no circuit, no credit in
        flight, crossbar row free, no traffic seen."""
        for vc in self.vcs:
            vc.reset()
        self.pc.reset()
        self.credit_channel.reset()
        self._reset_own()

    def _reset_own(self) -> None:
        """The registers of this object itself; its parts have their own."""
        self.st_busy_cycle = -1
        # Temporal-locality trackers (Fig. 1).
        self.last_pair: tuple[int, int] | None = None
        self.last_out = -1

    def send_credit(self, vc: int, now: int) -> None:
        self.credit_channel.send(vc, now)

    def deliver_credits(self, now: int) -> int:
        """Deliver due credit returns upstream; returns how many landed."""
        if self.upstream is None:
            return 0
        delivered = self.credit_channel.deliver(now)
        for vc in delivered:
            self.upstream.restore_credit(vc)
        return len(delivered)
