"""Weight-ordered routing: minimality, determinism, deadlock freedom as
``compile_routing`` verifies it (with a Hypothesis sweep over random
irregular graphs)."""

import heapq
import random

import pytest

from repro.routing import (RoutingDeadlockError, compile_routing,
                           make_routing)
from repro.routing.weighted import WeightOrderedRouting
from repro.topology import make_topology
from repro.topology.chiplet import ChipletTopology
from repro.topology.hetero import HeterogeneousTopology
from repro.topology.kite import KiteMesh
from repro.topology.mesh import Mesh


def min_weight_to(topo, dst):
    """Independent single-criterion Dijkstra: cheapest weight to ``dst``."""
    inf = float("inf")
    dist = [inf] * topo.num_routers
    dist[dst] = 0
    reverse = [[] for _ in range(topo.num_routers)]
    for r in range(topo.num_routers):
        for c in topo.out_channels(r):
            reverse[c.dst_router].append((r, c.weight))
    heap = [(0, dst)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > dist[r]:
            continue
        for prev, w in reverse[r]:
            if d + w < dist[prev]:
                dist[prev] = d + w
                heapq.heappush(heap, (d + w, prev))
    return dist


def _walk(routing, src, dst):
    """The ``(router, out_port)`` channels the tables steer ``src -> dst``
    router traffic through."""
    topo = routing.topology
    path = []
    while src != dst:
        assert len(path) <= topo.num_routers, "routing loop"
        port = routing.next_port(src, dst)
        path.append((src, port))
        src = topo.out_channels(src)[port].dst_router
    return path


def _compile(topo):
    routing = WeightOrderedRouting(topo)
    return compile_routing(routing, topo, 4)


def path_weight(topo, routing, src, dst):
    return sum(topo.out_channels(r)[p].weight
               for r, p in _walk(routing, src, dst))


class TestMinimality:
    @pytest.mark.parametrize("topo", [
        ChipletTopology(2, 2, chiplets=4, chiplet_link_latency=4),
        ChipletTopology(3, 2, chiplets=2, chiplet_link_latency=8),
        KiteMesh(4, 4), KiteMesh(5, 3),
    ], ids=["chiplet4x2x2", "chiplet2x3x2", "kite4x4", "kite5x3"])
    def test_paths_achieve_minimum_weight(self, topo):
        routing = WeightOrderedRouting(topo)
        for dst in range(topo.num_routers):
            oracle = min_weight_to(topo, dst)
            for src in range(topo.num_routers):
                if src != dst:
                    assert path_weight(topo, routing, src, dst) \
                        == oracle[src], (src, dst)

    def test_mesh_weights_reproduce_xy_order(self):
        """With x weight 1 / y weight 2 on a plain mesh graph, the walk
        is dimension-ordered: all x movement before any y movement."""
        mesh = Mesh(4, 4, 1)
        topo = HeterogeneousTopology(mesh.num_routers)
        for y in range(4):
            for x in range(4):
                r = mesh.router_at(x, y)
                if x + 1 < 4:
                    topo.add_duplex(r, mesh.router_at(x + 1, y), weight=1)
                if y + 1 < 4:
                    topo.add_duplex(r, mesh.router_at(x, y + 1), weight=2)
        routing = WeightOrderedRouting(topo)
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                moved_y = False
                for r, port in _walk(routing, src, dst):
                    nxt = topo.out_channels(r)[port].dst_router
                    if (nxt % 4) != (r % 4):      # x changed
                        assert not moved_y, (src, dst)
                    else:
                        moved_y = True


class TestChipletClasses:
    def test_same_die_paths_avoid_boundary_links(self):
        topo = ChipletTopology(3, 3, chiplets=3, chiplet_link_latency=8)
        routing = WeightOrderedRouting(topo)
        for die in range(3):
            routers = [topo.router_id(die, x, y)
                       for x in range(3) for y in range(3)]
            for src in routers:
                for dst in routers:
                    if src != dst:
                        for r, _ in _walk(routing, src, dst):
                            assert r != topo.io_router

    def test_vc_windows_disjoint_per_class(self):
        routing = WeightOrderedRouting(ChipletTopology(2, 2, chiplets=2))
        assert routing.num_route_choices == 2
        lo0, hi0 = routing.vc_window(0, -1, 4)
        lo1, hi1 = routing.vc_window(1, -1, 4)
        assert (lo0, hi0) == (0, 2)
        assert (lo1, hi1) == (2, 4)

    def test_too_few_vcs_rejected(self):
        routing = WeightOrderedRouting(ChipletTopology(2, 2, chiplets=2))
        with pytest.raises(ValueError, match="needs >= 2 VCs"):
            routing.vc_window(0, -1, 1)

    def test_single_class_uses_full_vc_range(self):
        routing = WeightOrderedRouting(KiteMesh(4, 4))
        assert routing.vc_window(0, -1, 4) == (0, 4)


class TestVerification:
    def test_unidirectional_ring_is_refused(self):
        """A one-way ring routes every pair around the loop: the single
        channel-dependency graph is one big cycle and construction must
        fail loudly."""
        topo = HeterogeneousTopology(4)
        for r in range(4):
            topo.add_channel(r, (r + 1) % 4)
        with pytest.raises(RoutingDeadlockError, match="cycle"):
            _compile(topo)

    def test_disconnected_graph_is_refused(self):
        topo = HeterogeneousTopology(3)
        topo.add_duplex(0, 1)
        with pytest.raises(ValueError, match="not connected"):
            WeightOrderedRouting(topo)

    def test_dependency_graphs_cover_all_route_classes(self):
        """Both classes are drawn, so the check walks both windows."""
        topo = ChipletTopology(2, 2, chiplets=2)
        routing = WeightOrderedRouting(topo)
        drawn = {choice for src in range(topo.num_routers)
                 for dst in range(topo.num_routers)
                 for choice in routing.route_choices(src, dst)}
        assert drawn == {0, 1}
        compiled = compile_routing(routing, topo, 4)
        assert compiled.windows[0][-1] != compiled.windows[1][-1]

    def test_wrong_topology_type_rejected(self):
        with pytest.raises(TypeError, match="HeterogeneousTopology"):
            WeightOrderedRouting(Mesh(4, 4, 1))

    def test_factory_builds_weighted(self):
        topo = make_topology("kite", 4, 4, 1)
        assert make_routing("weighted", topo).name == "weighted"


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def connected_graphs(draw):
    """Random connected duplex graph with random weights/latencies."""
    n = draw(st.integers(3, 8))
    rng = random.Random(draw(st.integers(0, 10_000)))
    topo = HeterogeneousTopology(n)
    edges = set()
    order = list(range(1, n))
    rng.shuffle(order)
    for r in order:                      # random spanning tree first
        other = rng.randrange(0, r)
        edges.add((min(r, other), max(r, other)))
    extra = draw(st.integers(0, n))
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    for a, b in sorted(edges):
        topo.add_duplex(a, b, latency=rng.randint(1, 4),
                        weight=rng.randint(1, 4))
    return topo


@settings(max_examples=60, deadline=None)
@given(topo=connected_graphs())
def test_random_graphs_route_minimally_or_refuse(topo):
    """Over random irregular graphs compilation either refuses with
    ``RoutingDeadlockError`` (tables would admit a channel-dependency
    cycle) or yields tables that are loop-free and weight-minimal for
    every pair."""
    routing = WeightOrderedRouting(topo)
    try:
        compile_routing(routing, topo, 4)
    except RoutingDeadlockError:
        return
    for dst in range(topo.num_routers):
        oracle = min_weight_to(topo, dst)
        for src in range(topo.num_routers):
            if src != dst:
                assert path_weight(topo, routing, src, dst) == oracle[src]


@settings(max_examples=25, deadline=None)
@given(kx=st.integers(1, 4), ky=st.integers(1, 4),
       chiplets=st.integers(1, 5), latency=st.integers(1, 8))
def test_chiplet_family_is_always_deadlock_free(kx, ky, chiplets, latency):
    topo = ChipletTopology(kx, ky, chiplets=chiplets,
                           chiplet_link_latency=latency)
    _compile(topo)     # raises RoutingDeadlockError if cyclic


@settings(max_examples=25, deadline=None)
@given(kx=st.integers(2, 7), ky=st.integers(2, 7))
def test_kite_family_is_always_deadlock_free(kx, ky):
    _compile(KiteMesh(kx, ky))
