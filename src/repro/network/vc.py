"""Input virtual-channel state machine.

Each input port has ``num_vcs`` VCs. A VC is IDLE until a head flit reaches
it, computes its route on arrival (lookahead routing keeps route computation
off the critical path, Galles 1996), waits for an output VC in VA, then is
ACTIVE until the tail flit departs.
"""

from __future__ import annotations

from enum import IntEnum

from .buffers import FlitBuffer
from .flit import Flit


class VCState(IntEnum):
    IDLE = 0
    VA = 1      # route known, waiting for an output VC
    ACTIVE = 2  # output VC allocated; flits compete in SA


class VirtualChannel:
    """State for one input VC: buffer + packet-in-progress bookkeeping."""

    __slots__ = ("vc_id", "buffer", "state", "out_port", "out_ep", "out_vc",
                 "out_ep_obj", "out_ovc_obj")

    def __init__(self, vc_id: int, buffer_depth: int):
        self.vc_id = vc_id
        self.buffer = FlitBuffer(buffer_depth)
        self._reset_own()

    def reset(self) -> None:
        """Initial state: IDLE with an empty buffer."""
        self.buffer.reset()
        self._reset_own()

    def _reset_own(self) -> None:
        """The registers of this object itself; its parts have their own."""
        self.state = VCState.IDLE
        self.out_port = -1
        self.out_ep = 0  # endpoint (drop) index on multidrop channels
        self.out_vc = -1
        # Resolved downstream objects for the ACTIVE packet (the OutEndpoint
        # and OutVC behind the indices above), bound by the router at VA
        # grant time so credit checks and traversal skip the
        # out_ports[...]->endpoints[...]->ovcs[...] indexing chain.
        self.out_ep_obj = None
        self.out_ovc_obj = None

    # -- state transitions -------------------------------------------------

    def start_packet(self, out_port: int, out_ep: int = 0) -> None:
        """Head flit routed: move IDLE -> VA."""
        if self.state != VCState.IDLE:
            raise RuntimeError(
                f"head flit arrived at busy VC {self.vc_id} "
                f"(state={self.state.name})")
        self.state = VCState.VA
        self.out_port = out_port
        self.out_ep = out_ep
        self.out_vc = -1

    def grant_out_vc(self, out_vc: int) -> None:
        """VA success: VA -> ACTIVE."""
        if self.state != VCState.VA:
            raise RuntimeError(f"VA grant in state {self.state.name}")
        self.state = VCState.ACTIVE
        self.out_vc = out_vc

    def finish_packet(self) -> None:
        """Tail flit departed: ACTIVE -> IDLE."""
        if self.state != VCState.ACTIVE:
            raise RuntimeError(f"tail departure in state {self.state.name}")
        self.state = VCState.IDLE
        self.out_port = -1
        self.out_ep = 0
        self.out_vc = -1
        self.out_ep_obj = None
        self.out_ovc_obj = None

    # -- queries ------------------------------------------------------------

    @property
    def has_flit(self) -> bool:
        return bool(self.buffer)

    def front(self) -> Flit:
        return self.buffer.front()

    def ready_for_sa(self, cycle: int) -> bool:
        """True when the front flit may request the switch this cycle."""
        return (self.state == VCState.ACTIVE and bool(self.buffer)
                and self.buffer.front().ready_cycle <= cycle)

    def __repr__(self) -> str:
        return (f"VC(id={self.vc_id}, {self.state.name}, "
                f"out={self.out_port}/{self.out_vc}, buf={len(self.buffer)})")
