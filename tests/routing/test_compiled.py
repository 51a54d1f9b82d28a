"""Compiled routing tables must be indistinguishable from route().

The hot path trusts ``tables[router][route_choice][dst]`` and
``windows[route_choice][out_port]`` completely — a single wrong entry
would silently misroute packets or break a deadlock-avoidance class while
every unit test of the algorithms keeps passing. This locks the tables to
the rules asked about a live packet: for every topology x algorithm, EVC
on its express mesh included, every (router, dst, route_choice) entry
must equal what ``route()`` returns, and the window of the output it
names (and of the injection channel) what ``vc_limits`` returns.
"""

import pytest

from repro.evc import EvcMesh, EvcRouting
from repro.routing import (O1TurnRouting, compile_routing, make_routing,
                           xy_routing, yx_routing)
from repro.network.flit import Packet
from repro.topology import make_topology

NUM_VCS = 4

TOPOLOGIES = [
    ("mesh", 3, 3, 1),
    ("mesh", 2, 4, 2),
    ("cmesh", 2, 2, 4),
    ("fbfly", 2, 2, 4),
    ("mecs", 2, 2, 4),
]

ALGORITHMS = ["xy", "yx", "o1turn"]


def _chip(algo, name, kx, ky, conc):
    """The (topology, routing) one case of ``CHIPS`` names."""
    if algo == "evc":
        topology = EvcMesh(kx, ky, conc)
        return topology, EvcRouting(topology)
    topology = make_topology(name, kx, ky, conc)
    return topology, make_routing(algo, topology)


#: Every registry topology under every DOR-family algorithm, then EVC on
#: express meshes wide enough for span-2 channels (one concentrated).
CHIPS = [(algo, *topo) for algo in ALGORITHMS for topo in TOPOLOGIES] + [
    ("evc", "evc_mesh", 5, 4, 1), ("evc", "evc_mesh", 4, 4, 4)]


def _packet(dst: int, route_choice: int, num_terminals: int) -> Packet:
    src = (dst + 1) % num_terminals  # any src != dst; routing ignores it
    packet = Packet(src=src, dst=dst, size=1, create_cycle=0)
    packet.route_choice = route_choice
    return packet


@pytest.mark.parametrize("chip", CHIPS, ids=[
    f"{algo}-{name}{kx}x{ky}c{conc}" for algo, name, kx, ky, conc in CHIPS])
def test_table_matches_dynamic_route(chip):
    topology, routing = _chip(*chip)
    compiled = compile_routing(routing, topology, NUM_VCS)
    assert compiled.num_route_choices == routing.num_route_choices
    for router in range(topology.num_routers):
        table = compiled.tables[router]
        for choice in range(routing.num_route_choices):
            per_dst = table[choice]
            windows = compiled.windows[choice]
            assert len(per_dst) == topology.num_terminals
            for dst in range(topology.num_terminals):
                packet = _packet(dst, choice, topology.num_terminals)
                out_port, drop = routing.route(router, packet)
                where = f"router={router} dst={dst} choice={choice}"
                assert per_dst[dst] == (out_port, drop), where
                assert windows[out_port] == routing.vc_limits(
                    packet, NUM_VCS, out_port), where
                assert windows[-1] == routing.vc_limits(packet, NUM_VCS), (
                    where)


@pytest.mark.parametrize("make", [xy_routing, yx_routing, O1TurnRouting])
def test_vc_ranges_match_vc_limits(make):
    """Every column of the window table, output ports and injection."""
    topology = make_topology("mesh", 3, 3, 1)
    routing = make(topology)
    compiled = compile_routing(routing, topology, NUM_VCS)
    ports = max(topology.num_outports(r) for r in range(topology.num_routers))
    for choice in range(routing.num_route_choices):
        row = compiled.windows[choice]
        assert len(row) == ports + 1
        for port in (*range(ports), -1):
            assert row[port] == routing.vc_window(choice, port, NUM_VCS)


def test_mismatched_topology_is_refused_by_name():
    # Tables sized by one topology and routed by another used to come
    # back silently; with the per-instance memo they would also stick.
    small = make_topology("mesh", 2, 2, 1)
    large = make_topology("mesh", 3, 3, 1)
    routing = make_routing("xy", small)
    with pytest.raises(ValueError) as err:
        compile_routing(routing, large, NUM_VCS)
    assert "4 routers" in str(err.value) and "9 routers" in str(err.value)
    twin = make_topology("mesh", 2, 2, 1)  # equal shape, other instance
    with pytest.raises(ValueError, match="another instance"):
        compile_routing(routing, twin, NUM_VCS)
    assert compile_routing(routing, small, NUM_VCS) is not None


def test_table_is_built_once_per_instance_and_num_vcs():
    topology = make_topology("mesh", 3, 3, 1)
    routing = make_routing("o1turn", topology)
    first = compile_routing(routing, topology, 4)
    assert compile_routing(routing, topology, 4) is first
    assert first.as_arrays() is first.as_arrays()
    wider = compile_routing(routing, topology, 8)
    assert wider is not first
    assert wider.windows != first.windows
    other = compile_routing(make_routing("o1turn", topology), topology, 4)
    assert other is not first and other.tables == first.tables
