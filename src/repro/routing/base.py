"""Routing algorithm interface.

Routers use lookahead routing (route computation is off the critical path),
so in the simulator ``route`` is evaluated when a head flit arrives, at no
cycle cost. ``route`` returns ``(out_port, drop)`` where ``drop`` indexes the
endpoint of a multidrop channel (always 0 on point-to-point channels).

``vc_limits`` partitions the VC space into deadlock-avoidance classes: a
packet may only ever occupy VCs inside its class (O1TURN needs two classes,
one per dimension order).
"""

from __future__ import annotations

import random

from ..network.flit import Packet
from ..topology.base import Topology


class RoutingAlgorithm:
    """Base class for routing algorithms.

    Deterministic algorithms whose output depends only on ``(router, dst,
    route_choice)`` set ``tabulable = True`` and implement ``route_entry``
    (a pure variant of ``route``); the network then compiles them into flat
    per-router lookup tables at construction (``routing.compiled``) and the
    per-flit ``route`` call chain disappears from the hot path. Algorithms
    with adaptive or state-dependent decisions keep the default
    ``tabulable = False`` and run via the dynamic ``route`` path.
    """

    name = "abstract"
    num_vc_classes = 1
    #: True when route()/vc_limits() are pure in (router, dst, route_choice)
    #: and can be compiled to lookup tables.
    tabulable = False
    #: Number of distinct values ``packet.route_choice`` can take.
    num_route_choices = 1

    def __init__(self, topology: Topology):
        self.topology = topology
        #: num_vcs -> CompiledRouting, filled by ``routing.compiled``.
        self.compiled: dict = {}

    def on_inject(self, packet: Packet, rng: random.Random) -> None:
        """Hook run once per packet at injection (O1TURN picks its order)."""

    def route(self, router: int, packet: Packet) -> tuple[int, int]:
        """Output port (and drop index) at ``router`` toward ``packet.dst``."""
        raise NotImplementedError

    def route_entry(self, router: int, dst: int,
                    route_choice: int) -> tuple[int, int]:
        """Pure form of ``route`` used by table compilation (tabulable
        algorithms only)."""
        raise NotImplementedError(
            f"{type(self).__name__} is not tabulable")

    def vc_limits(self, packet: Packet, num_vcs: int,
                  out_port: int = -1) -> tuple[int, int]:
        """Half-open VC range ``[lo, hi)`` this packet may use on the channel
        behind ``out_port`` (-1: the injection channel)."""
        return 0, num_vcs

    def vc_range_for_choice(self, route_choice: int,
                            num_vcs: int) -> tuple[int, int]:
        """Pure form of ``vc_limits`` keyed by route choice (tabulable
        algorithms only; their VC class never depends on the channel)."""
        return 0, num_vcs

    def _eject(self, packet: Packet) -> tuple[int, int]:
        return self.topology.ejection_port(packet.dst), 0
