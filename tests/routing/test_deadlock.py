"""``compile_routing`` proves every routing deadlock-free over its tables.

A node of the channel-dependency graph is ``(router, out_port, VC
window)``; a cycle among them refuses the routing with
``RoutingDeadlockError`` naming it. Every registry pair and EVC must
compile, and the two ways a table can fail — two orders in one window,
a path that never arrives — must be refused by name.
"""

import pytest

from repro.evc import EvcMesh, EvcRouting
from repro.routing import (DimensionOrderRouting, RoutingDeadlockError,
                           WeightOrderedRouting, compile_routing,
                           make_routing)
from repro.topology import TOPOLOGY_REGISTRY, make_topology
from repro.topology.chiplet import ChipletTopology
from repro.topology.mesh import EAST, Mesh, WEST

NUM_VCS = 4

PAIRS = [(name, routing, k, conc)
         for name, info in sorted(TOPOLOGY_REGISTRY.items())
         for routing in info.routings
         for k in (4, 8)
         for conc in ((4,) if name == "cmesh" else (1, 4))]


@pytest.mark.parametrize("name, routing, k, conc", PAIRS, ids=[
    f"{name}{k}x{k}c{conc}-{routing}" for name, routing, k, conc in PAIRS])
def test_registry_pair_is_acyclic(name, routing, k, conc):
    topology = make_topology(name, k, k, conc)
    compiled = compile_routing(make_routing(routing, topology), topology,
                               NUM_VCS)
    assert len(compiled.tables) == topology.num_routers


@pytest.mark.parametrize("k", [4, 8])
def test_evc_is_acyclic(k):
    topology = EvcMesh(k, k)
    compile_routing(EvcRouting(topology), topology, NUM_VCS)


def test_route_choice_counts():
    mesh = make_topology("mesh", 4, 4, 1)
    chiplet = make_topology("chiplet", 2, 2, 1)
    assert make_routing("xy", mesh).num_route_choices == 1
    assert make_routing("yx", mesh).num_route_choices == 1
    assert make_routing("o1turn", mesh).num_route_choices == 2
    assert (make_routing("weighted", chiplet).num_route_choices
            == chiplet.num_route_classes)
    xy = make_routing("xy", mesh)
    assert {len(row) for row in compile_routing(xy, mesh, NUM_VCS).tables} \
        == {1}


class _BothOrders(DimensionOrderRouting):
    """XY that also draws YX, in the same single VC window."""

    num_route_choices = 2


def _cycle(err):
    """The channels the refusal names, first one repeated at the end."""
    return str(err.value).rsplit(": ", 1)[1].split(" -> ")


def test_both_orders_in_one_window_are_refused():
    """The 2x2 ring: XY turns east then north, YX north then east."""
    topology = Mesh(2, 2)
    with pytest.raises(RoutingDeadlockError) as err:
        compile_routing(_BothOrders(topology), topology, NUM_VCS)
    cycle = _cycle(err)
    assert cycle[0] == cycle[-1]
    assert sorted(cycle[1:]) == ["r0:p0[0, 4)", "r1:p2[0, 4)",
                                 "r2:p3[0, 4)", "r3:p1[0, 4)"]


class _PingPong(DimensionOrderRouting):
    """XY, except that routers 0 and 1 bounce every packet for a third
    router between them."""

    def route_entry(self, router, dst, route_choice):
        if router in (0, 1) and self.topology.terminal_router(dst) > 1:
            return (EAST if router == 0 else WEST), 0
        return super().route_entry(router, dst, route_choice)


def test_path_that_never_arrives_is_refused():
    topology = Mesh(3, 2)
    with pytest.raises(RoutingDeadlockError) as err:
        compile_routing(_PingPong(topology), topology, NUM_VCS)
    cycle = _cycle(err)
    assert cycle[0] == cycle[-1]
    assert sorted(cycle[1:]) == ["r0:p0[0, 4)", "r1:p1[0, 4)"]


class _OneClassChiplet(ChipletTopology):
    num_route_classes = 1

    def route_class(self, src_router, dst_router):
        return 0


@pytest.mark.parametrize("chiplets, latency", [(2, 1), (4, 4), (5, 8)])
def test_chiplet_with_one_vc_window_compiles(chiplets, latency):
    """Same-die and cross-die traffic sharing one window is acyclic too."""
    topology = _OneClassChiplet(3, 3, chiplets=chiplets,
                                chiplet_link_latency=latency)
    compiled = compile_routing(WeightOrderedRouting(topology), topology,
                               NUM_VCS)
    assert compiled.windows == (((0, NUM_VCS),) * len(compiled.windows[0]),)
