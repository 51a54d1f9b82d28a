"""Flits and packets for flit-based wormhole switching.

A packet is split by the sender network interface into ``size`` flits: a head
flit carrying routing information, zero or more body flits, and a tail flit.
A single-flit packet is a combined head+tail (``HEAD_TAIL``). The paper uses
1-flit packets for address-only messages and 5-flit packets for messages that
carry a 64B data block over a 128-bit link (Section V).
"""

from __future__ import annotations

import itertools
from enum import IntEnum


class FlitType(IntEnum):
    """Position of a flit within its packet."""

    HEAD = 0
    BODY = 1
    TAIL = 2
    HEAD_TAIL = 3

    @property
    def is_head(self) -> bool:
        return self in (FlitType.HEAD, FlitType.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        return self in (FlitType.TAIL, FlitType.HEAD_TAIL)


_packet_ids = itertools.count()


class Packet:
    """A network message: unit of routing and of latency accounting.

    Parameters
    ----------
    src, dst:
        Terminal (node) ids, not router ids.
    size:
        Number of flits (>= 1).
    create_cycle:
        Cycle at which the message was handed to the source NIC; latency is
        measured from here (includes source queuing).
    msg_type:
        Free-form tag used by the CMP substrate (e.g. ``"read_req"``); the
        network itself never interprets it.
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "size",
        "create_cycle",
        "inject_cycle",
        "eject_cycle",
        "msg_type",
        "payload",
        "route_choice",
        "hops",
        "sa_bypass_hops",
        "buf_bypass_hops",
    )

    def __init__(self, src: int, dst: int, size: int, create_cycle: int,
                 msg_type: str = "data", payload=None):
        if size < 1:
            raise ValueError(f"packet size must be >= 1, got {size}")
        if src == dst:
            raise ValueError("packet source and destination must differ")
        self.pid = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.size = size
        self.create_cycle = create_cycle
        self.inject_cycle = -1
        self.eject_cycle = -1
        self.msg_type = msg_type
        self.payload = payload
        # Set at injection by O1TURN (0 = XY, 1 = YX); DOR ignores it.
        self.route_choice = 0
        # Statistics filled in as the packet moves.
        self.hops = 0
        self.sa_bypass_hops = 0
        self.buf_bypass_hops = 0

    @property
    def latency(self) -> int:
        """Total packet latency (creation to head-flit ejection)."""
        if self.eject_cycle < 0:
            raise ValueError("packet has not been ejected yet")
        return self.eject_cycle - self.create_cycle

    @property
    def network_latency(self) -> int:
        """Latency excluding source queuing (injection to ejection)."""
        if self.eject_cycle < 0:
            raise ValueError("packet has not been ejected yet")
        return self.eject_cycle - self.inject_cycle

    def make_flits(self) -> list["Flit"]:
        """Split this packet into its flit sequence (sender NIC behaviour)."""
        if self.size == 1:
            return [Flit(self, FlitType.HEAD_TAIL, 0)]
        flits = [Flit(self, FlitType.HEAD, 0)]
        flits.extend(Flit(self, FlitType.BODY, i)
                     for i in range(1, self.size - 1))
        flits.append(Flit(self, FlitType.TAIL, self.size - 1))
        return flits

    def __repr__(self) -> str:
        return (f"Packet(pid={self.pid}, {self.src}->{self.dst}, "
                f"size={self.size}, type={self.msg_type!r})")


class Flit:
    """One link-width unit of a packet in flight."""

    __slots__ = ("packet", "ftype", "index", "vc", "is_head", "is_tail")

    def __init__(self, packet: Packet, ftype: FlitType, index: int):
        self.packet = packet
        self.ftype = ftype
        self.index = index
        # Flattened from ftype at construction: the router checks these on
        # every pipeline stage and the type of a flit never changes.
        self.is_head = ftype is FlitType.HEAD or ftype is FlitType.HEAD_TAIL
        self.is_tail = ftype is FlitType.TAIL or ftype is FlitType.HEAD_TAIL
        # Input VC currently holding the flit; rewritten at every hop when the
        # upstream router picks the downstream VC (VC allocation).
        self.vc = -1

    @property
    def dst(self) -> int:
        return self.packet.dst

    @property
    def src(self) -> int:
        return self.packet.src

    def __repr__(self) -> str:
        return (f"Flit(pid={self.packet.pid}, {self.ftype.name}, "
                f"idx={self.index}, vc={self.vc})")
