"""Probe attachment: null object by default, full fan-out when bound."""

from repro.instrument import CompositeProbe, Probe
from repro.network.config import PSEUDO_SB, NetworkConfig
from repro.network.simulator import Network
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic


def small_net(probe=None):
    topo = make_topology("mesh", 4, 4, 1)
    config = NetworkConfig(num_vcs=2, buffer_depth=2, pseudo=PSEUDO_SB)
    net = Network(topo, config, seed=3)
    if probe is not None:
        net.bind_probe(probe)
    return net


class RecordingProbe(Probe):
    def __init__(self):
        self.bound = None
        self.calls: list[str] = []

    def bind(self, network):
        self.bound = network

    def on_buffer_write(self, cycle, router, in_port, vc, flit):
        self.calls.append("buffer_write")

    def on_traverse(self, cycle, router, in_port, vc, out_port, via, read,
                    flit):
        self.calls.append("traverse")

    def on_link(self, cycle, link, router, in_port, flit):
        self.calls.append("link")

    def on_inject(self, cycle, terminal, packet):
        self.calls.append("inject")

    def on_eject(self, cycle, terminal, packet):
        self.calls.append("eject")

    def on_cycle_start(self, cycle, network):
        self.calls.append("cycle")


def test_probe_is_null_object_by_default():
    net = small_net()
    assert net.probe is None
    assert all(r._probe is None for r in net.routers)
    assert all(link._probe is None for link in net.links)
    assert all(nic._probe is None for nic in net.nics)


def test_bind_probe_reaches_every_component():
    probe = RecordingProbe()
    net = small_net(probe=probe)
    assert probe.bound is net
    assert net.probe is probe
    assert all(r._probe is probe for r in net.routers)
    assert all(link._probe is probe for link in net.links)
    assert all(nic._probe is probe for nic in net.nics)


def test_probe_sees_full_flit_lifecycle():
    probe = RecordingProbe()
    net = small_net(probe=probe)
    traffic = SyntheticTraffic("uniform", net.topology.num_terminals, 0.1,
                               2, seed=3)
    net.run(200, traffic)
    net.drain(max_cycles=100_000)
    seen = set(probe.calls)
    assert {"buffer_write", "traverse", "link", "inject", "eject",
            "cycle"} <= seen


def test_base_probe_hooks_are_noops():
    net = small_net(probe=Probe())  # must not raise anywhere
    traffic = SyntheticTraffic("uniform", net.topology.num_terminals, 0.1,
                               2, seed=3)
    net.run(100, traffic)
    net.drain(max_cycles=100_000)


def test_composite_probe_fans_out():
    first, second = RecordingProbe(), RecordingProbe()
    net = small_net(probe=CompositeProbe(first, second))
    traffic = SyntheticTraffic("uniform", net.topology.num_terminals, 0.1,
                               2, seed=3)
    net.run(150, traffic)
    net.drain(max_cycles=100_000)
    assert first.bound is net and second.bound is net
    assert first.calls == second.calls
    assert "traverse" in first.calls
