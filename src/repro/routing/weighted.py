"""Weight-ordered table routing over arbitrary heterogeneous graphs.

gem5-style link-class routing: every channel carries a routing weight
(``HeterogeneousTopology.link_weight``), a packet follows a path that
minimizes ``(sum of weights, hop count)``, and ties between equally good
next hops are broken by ``(link weight, output port)`` — lighter link
classes first, matching gem5's ``Table`` routing where lower-weight
links are preferred. On a mesh with x weight 1 / y weight 2 this
reproduces XY dimension order exactly.

``routing.compiled`` flattens the tables into the same per-router lookup
arrays every routing compiles to, so none of the cores need to know the
graph is irregular.

No local weight-monotonicity argument survives table merging on
irregular graphs, so deadlock freedom rests on ``compile_routing``'s
check, as for every routing. A packet's VC class is its
``topology.route_class`` (chiplet: same-die or cross-die, in disjoint
VC windows as O1TURN's orders are), and ``route_choices`` tells the
check which class each router pair draws.
"""

from __future__ import annotations

import heapq
import random

from ..network.flit import Packet
from ..topology.hetero import HeterogeneousTopology
from .base import RoutingAlgorithm


class WeightOrderedRouting(RoutingAlgorithm):
    """Minimal (weight, hops) table routing, one VC class per route class."""

    name = "weighted"

    def __init__(self, topology):
        if not isinstance(topology, HeterogeneousTopology):
            raise TypeError(
                "weight-ordered routing needs a HeterogeneousTopology "
                f"(chiplet, kite, ...), got {type(topology).__name__}")
        super().__init__(topology)
        classes = topology.num_route_classes
        if classes < 1:
            raise ValueError("num_route_classes must be >= 1")
        self.num_vc_classes = classes
        self.num_route_choices = classes
        # _next[dst_router][router] -> out_port (-1 at the destination).
        self._next = [self._build_for_dst(d)
                      for d in range(topology.num_routers)]

    # -- table construction --------------------------------------------------

    def _build_for_dst(self, dst: int) -> list[int]:
        """Next-hop output port toward ``dst`` from every router.

        Backward Dijkstra on the reversed graph gives each router its
        distance ``(weight sum, hops)`` to ``dst``; the next hop is the
        out-channel that lies on a distance-achieving path, lowest
        ``(link weight, port)`` first.
        """
        topo = self.topology
        n = topo.num_routers
        inf = (float("inf"), float("inf"))
        dist: list[tuple[float, float]] = [inf] * n
        dist[dst] = (0, 0)
        reverse: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for r in range(n):
            for c in topo.out_channels(r):
                reverse[c.dst_router].append((r, c.weight, c.src_port))
        heap: list[tuple[tuple[float, float], int]] = [((0, 0), dst)]
        while heap:
            d, r = heapq.heappop(heap)
            if d > dist[r]:
                continue
            for prev, weight, _port in reverse[r]:
                cand = (d[0] + weight, d[1] + 1)
                if cand < dist[prev]:
                    dist[prev] = cand
                    heapq.heappush(heap, (cand, prev))
        table = [-1] * n
        for r in range(n):
            if r == dst:
                continue
            if dist[r] == inf:
                raise ValueError(
                    f"topology {topo.name!r} is not connected: router {dst} "
                    f"is unreachable from router {r}")
            best: tuple[int, int] | None = None
            for c in topo.out_channels(r):
                nd = dist[c.dst_router]
                if (nd[0] + c.weight, nd[1] + 1) == dist[r]:
                    key = (c.weight, c.src_port)
                    if best is None or key < best:
                        best = key
            table[r] = best[1]
        return table

    # -- RoutingAlgorithm interface ------------------------------------------

    def next_port(self, router: int, dst_router: int) -> int:
        """Table lookup: output port at ``router`` toward ``dst_router``
        (-1 when already there)."""
        return self._next[dst_router][router]

    def on_inject(self, packet: Packet, rng: random.Random) -> None:
        if self.num_route_choices == 1:
            return
        topo = self.topology
        packet.route_choice = topo.route_class(
            topo.terminal_router(packet.src), topo.terminal_router(packet.dst))

    def route_choices(self, src_router: int, dst_router: int):
        return (self.topology.route_class(src_router, dst_router),)

    def route_entry(self, router: int, dst: int,
                    route_choice: int) -> tuple[int, int]:
        dst_router = self.topology.terminal_router(dst)
        if router == dst_router:
            return self.topology.ejection_port(dst), 0
        return self._next[dst_router][router], 0

    def vc_window(self, route_choice: int, out_port: int,
                  num_vcs: int) -> tuple[int, int]:
        classes = self.num_route_choices
        if classes == 1:
            return 0, num_vcs
        if num_vcs < classes:
            raise ValueError(
                f"weight-ordered routing on topology "
                f"{self.topology.name!r} needs >= {classes} VCs for its "
                f"{classes} deadlock-avoidance classes, got {num_vcs}")
        if not 0 <= route_choice < classes:
            raise ValueError(f"route choice {route_choice} out of range")
        lo = route_choice * num_vcs // classes
        hi = (route_choice + 1) * num_vcs // classes
        return lo, hi
