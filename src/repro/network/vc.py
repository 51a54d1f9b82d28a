"""Input virtual-channel state.

Each input port has ``num_vcs`` VCs. A VC is IDLE until a head flit reaches
the front of its buffer, then waits in VA for an output VC with its route
known (lookahead routing keeps route computation off the critical path,
Galles 1996), then is ACTIVE until the tail flit departs. The router's
cycle moves these registers itself.
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum

from .errors import BufferOverflowError  # noqa: F401  (also named here)
from .flit import Flit


class VCState(IntEnum):
    IDLE = 0
    VA = 1      # route known, waiting for an output VC
    ACTIVE = 2  # output VC allocated; flits compete in SA


class VirtualChannel:
    """One input VC: its flit buffer plus packet-in-progress registers.

    ``buffer`` is a FIFO of flits; credit flow control keeps it within
    ``config.buffer_depth``, and the router's buffer write raises
    :class:`BufferOverflowError` if a flit ever arrives at a full one.
    """

    __slots__ = ("vc_id", "buffer", "state", "out_port", "out_ep", "out_vc",
                 "out_ep_obj", "out_ovc_obj")

    def __init__(self, vc_id: int):
        self.vc_id = vc_id
        self.buffer: deque[Flit] = deque()
        self.reset()

    def reset(self) -> None:
        """Initial state: IDLE with an empty buffer."""
        self.buffer.clear()
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

    def __repr__(self) -> str:
        return (f"VC(id={self.vc_id}, {self.state.name}, "
                f"out={self.out_port}/{self.out_vc}, buf={len(self.buffer)})")
