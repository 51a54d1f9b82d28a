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

Deadlock freedom is not assumed — it is *verified*. Tie-break
interactions on irregular graphs are subtle enough that no local
weight-monotonicity argument survives table merging, so after building
the tables the constructor walks every (source, destination) router pair,
collects the channel-dependency graph per VC class (chiplet separates
same-die from cross-die traffic into disjoint VC windows via
``topology.route_class``, exactly the O1TURN mechanism), and runs a DFS
cycle check. A cyclic class raises :class:`RoutingDeadlockError` naming
one offending channel cycle; constructing a network on such a
topology/weighting is impossible rather than silently hazardous.
"""

from __future__ import annotations

import heapq
import random

from ..network.flit import Packet
from ..topology.hetero import HeterogeneousTopology
from .base import RoutingAlgorithm


class RoutingDeadlockError(Exception):
    """The routing tables admit a cycle in a channel-dependency graph."""


class WeightOrderedRouting(RoutingAlgorithm):
    """Minimal (weight, hops) table routing with verified deadlock freedom."""

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
        cycle = find_dependency_cycle(self)
        if cycle is not None:
            route_class, chain = cycle
            pretty = " -> ".join(f"r{r}:p{p}" for r, p in chain)
            raise RoutingDeadlockError(
                f"weight-ordered tables for topology {topology.name!r} have "
                f"a channel-dependency cycle in VC class {route_class}: "
                f"{pretty}")

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


# -- deadlock analysis (also used by the property tests) ----------------------

def channel_dependency_graphs(
        routing: WeightOrderedRouting,
) -> dict[int, dict[tuple[int, int], set[tuple[int, int]]]]:
    """Per-VC-class channel-dependency graphs induced by the tables.

    A channel is identified as ``(router, out_port)``. For every ordered
    router pair the table path is walked; consecutive channels add a
    dependency edge into the class that pair's traffic travels in.
    Classes use disjoint VC windows, so cycles cannot span classes.
    """
    topo = routing.topology
    n = topo.num_routers
    graphs: dict[int, dict[tuple[int, int], set[tuple[int, int]]]] = {
        cls: {} for cls in range(topo.num_route_classes)}
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            cls = topo.route_class(src, dst)
            graph = graphs[cls]
            path = _walk(routing, src, dst)
            for a, b in zip(path, path[1:]):
                graph.setdefault(a, set()).add(b)
                graph.setdefault(b, set())
    return graphs


def _walk(routing: WeightOrderedRouting, src: int,
          dst: int) -> list[tuple[int, int]]:
    """Channel sequence the tables steer ``src -> dst`` traffic through."""
    topo = routing.topology
    path: list[tuple[int, int]] = []
    r = src
    while r != dst:
        if len(path) > topo.num_routers:
            raise RoutingDeadlockError(
                f"routing loop: {src} -> {dst} does not converge")
        port = routing.next_port(r, dst)
        path.append((r, port))
        r = topo.out_channels(r)[port].dst_router
    return path


def find_dependency_cycle(
        routing: WeightOrderedRouting,
) -> tuple[int, list[tuple[int, int]]] | None:
    """First channel-dependency cycle across all VC classes, or ``None``.

    Returns ``(route_class, [channel, ..., channel])`` with the first
    channel repeated at the end of the chain.
    """
    for cls, graph in channel_dependency_graphs(routing).items():
        cycle = _find_cycle(graph)
        if cycle is not None:
            return cls, cycle
    return None


def _find_cycle(graph: dict[tuple[int, int], set[tuple[int, int]]],
                ) -> list[tuple[int, int]] | None:
    """Iterative three-color DFS; returns one cycle if the graph has any."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    for start in graph:
        if color[start] != WHITE:
            continue
        stack: list[tuple[tuple[int, int], list[tuple[int, int]]]] = [
            (start, sorted(graph[start]))]
        color[start] = GRAY
        trail = [start]
        while stack:
            node, succs = stack[-1]
            if succs:
                nxt = succs.pop(0)
                if color[nxt] == GRAY:
                    i = trail.index(nxt)
                    return trail[i:] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    trail.append(nxt)
                    stack.append((nxt, sorted(graph[nxt])))
            else:
                color[node] = BLACK
                trail.pop()
                stack.pop()
    return None
