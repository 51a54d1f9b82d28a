"""Unit and property tests for dimension-order routing."""

import pytest
from hypothesis import given, strategies as st

from repro.network.flit import Packet
from repro.routing.dor import DimensionOrderRouting, xy_routing, yx_routing
from repro.routing.o1turn import O1TurnRouting
from repro.topology.fbfly import FlattenedButterfly
from repro.topology.mecs import Mecs
from repro.topology.mesh import EAST, Mesh, NORTH, SOUTH, WEST


def pkt(src, dst):
    return Packet(src, dst, 1, 0)


class TestMeshXY:
    def test_corrects_x_first(self):
        topo = Mesh(4, 4)
        routing = xy_routing(topo)
        # From (0,0) to (2,2): east first.
        assert routing.route(topo.router_at(0, 0), pkt(0, 10)) == (EAST, 0)
        # Once x matches, go north.
        assert routing.route(topo.router_at(2, 0), pkt(0, 10)) == (NORTH, 0)

    def test_west_and_south(self):
        topo = Mesh(4, 4)
        routing = xy_routing(topo)
        assert routing.route(topo.router_at(3, 3), pkt(15, 0)) == (WEST, 0)
        assert routing.route(topo.router_at(0, 3), pkt(15, 0)) == (SOUTH, 0)

    def test_ejection_at_destination(self):
        topo = Mesh(4, 4)
        routing = xy_routing(topo)
        port, drop = routing.route(10, pkt(0, 10))
        assert port == topo.ejection_port(10) and drop == 0

    def test_yx_corrects_y_first(self):
        topo = Mesh(4, 4)
        routing = yx_routing(topo)
        assert routing.route(topo.router_at(0, 0), pkt(0, 10)) == (NORTH, 0)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            DimensionOrderRouting(Mesh(2, 2), "zigzag")

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_always_reaches_destination(self, src, dst):
        """Property: following XY hop-by-hop terminates at the dst router
        within the Manhattan distance."""
        if src == dst:
            return
        topo = Mesh(4, 4)
        routing = xy_routing(topo)
        packet = pkt(src, dst)
        router = topo.terminal_router(src)
        for _ in range(topo.min_hops(router, topo.terminal_router(dst))):
            port, _ = routing.route(router, packet)
            assert port < 4
            router = topo.neighbor(router, port)
        assert router == topo.terminal_router(dst)


class TestFbflyRouting:
    def test_two_hops_max(self):
        topo = FlattenedButterfly(4, 4, 1)
        routing = xy_routing(topo)
        src_router = topo.router_at(0, 0)
        dst = topo.router_at(3, 2)  # terminal == router with conc 1
        port, drop = routing.route(src_router, pkt(0, dst))
        assert drop == 0
        # First hop lands in the destination column, same row.
        assert port == topo.port_to(src_router, topo.router_at(3, 0))

    def test_second_dimension(self):
        topo = FlattenedButterfly(4, 4, 1)
        routing = xy_routing(topo)
        mid = topo.router_at(3, 0)
        port, _ = routing.route(mid, pkt(0, topo.router_at(3, 2)))
        assert port == topo.port_to(mid, topo.router_at(3, 2))


class TestMecsRouting:
    def test_drop_index_is_distance_minus_one(self):
        topo = Mecs(4, 4, 1)
        routing = xy_routing(topo)
        src = topo.router_at(0, 1)
        port, drop = routing.route(src, pkt(src, topo.router_at(3, 1)))
        assert port == EAST and drop == 2

    def test_vertical_drop(self):
        topo = Mecs(4, 4, 1)
        routing = xy_routing(topo)
        src = topo.router_at(2, 3)
        port, drop = routing.route(src, pkt(0, topo.router_at(2, 1)))
        assert port == SOUTH and drop == 1


def test_route_choice_flips_order():
    topo = Mesh(4, 4)
    routing = O1TurnRouting(topo)
    p = pkt(0, 10)
    p.route_choice = 1  # O1TURN YX leg
    assert routing.route(topo.router_at(0, 0), p) == (NORTH, 0)
