"""Compiled routing tables must be indistinguishable from dynamic route().

The hot path trusts ``route_table[router][route_choice][dst]`` completely —
a single wrong entry would silently misroute packets while every unit test
of the dynamic algorithms keeps passing. This locks the table to the
dynamic path: for every topology x tabulable algorithm, every (router, dst,
route_choice) entry must equal what ``route()`` returns for a live packet,
and the folded-in VC window must equal ``vc_limits``. Non-tabulable
algorithms (EVC) must compile to None and keep running dynamically.
"""

import pytest

from repro.harness.experiment import (ExperimentConfig, build_network,
                                      run_experiment)
from repro.network.flit import Packet
from repro.routing import (O1TurnRouting, compile_routing, make_routing,
                           xy_routing, yx_routing)
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


def _packet(dst: int, route_choice: int, num_terminals: int) -> Packet:
    src = (dst + 1) % num_terminals  # any src != dst; routing ignores it
    packet = Packet(src=src, dst=dst, size=1, create_cycle=0)
    packet.route_choice = route_choice
    return packet


@pytest.mark.parametrize("name,kx,ky,conc", TOPOLOGIES,
                         ids=[f"{n}{kx}x{ky}c{c}" for n, kx, ky, c
                              in TOPOLOGIES])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_table_matches_dynamic_route(name, kx, ky, conc, algo):
    topology = make_topology(name, kx, ky, conc)
    routing = make_routing(algo, topology)
    assert routing.tabulable
    compiled = compile_routing(routing, topology, NUM_VCS)
    assert compiled is not None
    assert compiled.num_route_choices == routing.num_route_choices
    for router in range(topology.num_routers):
        table = compiled.router_table(router)
        for choice in range(routing.num_route_choices):
            per_dst = table[choice]
            assert len(per_dst) == topology.num_terminals
            for dst in range(topology.num_terminals):
                packet = _packet(dst, choice, topology.num_terminals)
                out_port, drop = routing.route(router, packet)
                lo, hi = routing.vc_limits(packet, NUM_VCS, out_port)
                assert per_dst[dst] == (out_port, drop, lo, hi), (
                    f"{name} {algo} router={router} dst={dst} "
                    f"choice={choice}")


@pytest.mark.parametrize("make", [xy_routing, yx_routing, O1TurnRouting])
def test_vc_ranges_match_vc_limits(make):
    topology = make_topology("mesh", 3, 3, 1)
    routing = make(topology)
    compiled = compile_routing(routing, topology, NUM_VCS)
    for choice in range(routing.num_route_choices):
        assert (compiled.vc_ranges[choice]
                == routing.vc_range_for_choice(choice, NUM_VCS))


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
    assert wider.vc_ranges != first.vc_ranges
    other = compile_routing(make_routing("o1turn", topology), topology, 4)
    assert other is not first and other.tables == first.tables


class TestNonTabulable:
    def test_evc_compiles_to_none(self):
        cfg = ExperimentConfig(topology="evc_mesh", kx=4, ky=4,
                               concentration=1, pattern="uniform")
        net = build_network(cfg)
        assert net.routing.name == "evc_xy"
        assert not net.routing.tabulable
        assert net.compiled_routing is None

    def test_evc_network_still_routes_dynamically(self):
        cfg = ExperimentConfig(topology="evc_mesh", kx=4, ky=4,
                               concentration=1, pattern="uniform",
                               rate=0.05, synth_cycles=200, synth_warmup=40)
        res = run_experiment(cfg, use_cache=False)
        assert res.packets > 0
