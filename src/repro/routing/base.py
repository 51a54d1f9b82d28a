"""Routing algorithm interface.

Routers use lookahead routing (route computation is off the critical path),
so in the simulator a route is looked up when a head flit arrives, at no
cycle cost. Every algorithm states two pure rules, which
``routing.compiled`` turns into the tables both network cores read:

* ``route_entry(router, dst, route_choice)`` -> ``(out_port, drop)``,
  where ``drop`` indexes the endpoint of a multidrop channel (always 0 on
  point-to-point channels);
* ``vc_window(route_choice, out_port, num_vcs)`` -> the half-open VC
  range ``[lo, hi)`` a packet may occupy on the channel behind
  ``out_port`` (-1: the injection channel). The windows partition the VC
  space into deadlock-avoidance classes (O1TURN needs two, one per
  dimension order; EVC reserves the express channels' VCs).

``route`` and ``vc_limits`` are the same rules asked about a live packet;
the network never calls them, the table tests compare against them.
"""

from __future__ import annotations

import random

from ..network.flit import Packet
from ..topology.base import Topology


class RoutingAlgorithm:
    """Base class for routing algorithms: deterministic in ``(router,
    dst, route_choice)``, with a VC window per ``(route_choice,
    out_port)``. Anything a packet's route depends on beyond its
    destination is drawn once, at injection, into ``route_choice``."""

    name = "abstract"
    num_vc_classes = 1
    #: Number of distinct values ``packet.route_choice`` can take.
    num_route_choices = 1

    def __init__(self, topology: Topology):
        self.topology = topology
        #: num_vcs -> CompiledRouting, filled by ``routing.compiled``.
        self.compiled: dict = {}

    def on_inject(self, packet: Packet, rng: random.Random) -> None:
        """Hook run once per packet at injection (O1TURN picks its order)."""

    def route_choices(self, src_router: int, dst_router: int):
        """The route choices a packet from ``src_router`` to
        ``dst_router`` may draw (``on_inject``); the deadlock check
        follows only these. Default: every choice."""
        return range(self.num_route_choices)

    def route_entry(self, router: int, dst: int,
                    route_choice: int) -> tuple[int, int]:
        """Output port (and drop index) at ``router`` toward ``dst``."""
        raise NotImplementedError

    def vc_window(self, route_choice: int, out_port: int,
                  num_vcs: int) -> tuple[int, int]:
        """Half-open VC range ``[lo, hi)`` for a packet of
        ``route_choice`` on the channel behind ``out_port`` (-1: the
        injection channel)."""
        return 0, num_vcs

    def route(self, router: int, packet: Packet) -> tuple[int, int]:
        """``route_entry`` for a live packet."""
        return self.route_entry(router, packet.dst, packet.route_choice)

    def vc_limits(self, packet: Packet, num_vcs: int,
                  out_port: int = -1) -> tuple[int, int]:
        """``vc_window`` for a live packet."""
        return self.vc_window(packet.route_choice, out_port, num_vcs)
