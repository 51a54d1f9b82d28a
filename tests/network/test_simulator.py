"""Tests for network construction and the simulation loop."""

import pytest

from repro.network.config import NetworkConfig, PSEUDO_SB
from repro.network.flit import Packet
from repro.network.simulator import Network
from repro.topology import make_topology
from repro.topology.mesh import Mesh


class TestConstruction:
    @pytest.mark.parametrize("name,conc", [
        ("mesh", 1), ("cmesh", 4), ("fbfly", 4), ("mecs", 4)])
    def test_every_topology_builds_and_delivers(self, name, conc):
        topo = make_topology(name, 4, 4, conc)
        net = Network(topo, NetworkConfig(), "xy", "dynamic", seed=1)
        n = topo.num_terminals
        packets = [Packet(i, (i + n // 2 + 1) % n, 2, 0) for i in range(6)]
        for p in packets:
            net.inject(p)
        net.drain()
        assert all(p.eject_cycle >= 0 for p in packets)
        net.check_invariants()

    def test_string_factories(self):
        net = Network(Mesh(2, 2), NetworkConfig(), "yx", "static")
        assert net.routing.name == "yx"
        assert net.vc_policy.name == "static"

    def test_router_port_counts_match_topology(self):
        topo = make_topology("mecs", 4, 4, 4)
        net = Network(topo, NetworkConfig(), "xy", "dynamic")
        for r in net.routers:
            assert len(r.in_ports) == topo.num_inports(r.router_id)
            assert len(r.out_ports) == topo.num_outports(r.router_id)


class TestRunLoop:
    def test_drain_timeout_raises(self):
        net = Network(Mesh(2, 2), NetworkConfig())
        net.inject(Packet(0, 3, 1, 0))
        with pytest.raises(RuntimeError):
            net.drain(max_cycles=2)

    def test_quiescent_accounting(self):
        net = Network(Mesh(2, 2), NetworkConfig())
        assert net.quiescent()
        net.inject(Packet(0, 3, 1, 0))
        assert not net.quiescent()
        assert net.in_flight_packets() == 1
        net.drain()
        assert net.quiescent()
        assert net.in_flight_packets() == 0

    def test_same_seed_is_deterministic(self):
        def run(seed):
            from repro.traffic.synthetic import SyntheticTraffic
            net = Network(Mesh(4, 4), NetworkConfig(), seed=seed)
            net.run(300, SyntheticTraffic("uniform", 16, 0.2, 5, seed=3))
            net.drain()
            return (net.stats.avg_latency, net.stats.ejected_packets,
                    net.stats.flit_hops)
        assert run(5) == run(5)

    def test_scheme_changes_are_isolated_to_latency(self):
        """Same traffic: pseudo-circuits never lose or duplicate packets."""
        from repro.traffic.synthetic import SyntheticTraffic
        results = []
        for scheme in (NetworkConfig(), NetworkConfig(pseudo=PSEUDO_SB)):
            net = Network(Mesh(4, 4), scheme, "xy", "static", seed=2)
            net.run(400, SyntheticTraffic("transpose", 16, 0.3, 5, seed=8))
            net.drain()
            results.append(net.stats)
        base, pc = results
        assert base.injected_packets == pc.injected_packets
        assert base.ejected_flits == pc.ejected_flits
        assert pc.avg_latency <= base.avg_latency
