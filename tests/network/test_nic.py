"""Unit tests for the network interface."""

from repro.network.config import NetworkConfig
from repro.network.flit import Packet
from repro.network.simulator import Network
from repro.topology.mesh import Mesh


def build(mshrs=0):
    net = Network(Mesh(4, 2), NetworkConfig(mshrs=mshrs),
                  routing="xy", vc_policy="dynamic", seed=1)
    return net


class TestInjection:
    def test_one_flit_per_cycle(self):
        net = build()
        net.inject(Packet(0, 3, 5, 0))
        nic = net.nics[0]
        # After 3 cycles at most 3 flits can have left the NIC.
        for _ in range(3):
            net.step()
        in_progress = sum(len(e[1]) - e[2] for e in nic._sending.values())
        assert in_progress >= 2  # at least 2 of 5 flits still to send

    def test_packets_interleave_on_different_vcs(self):
        net = build()
        net.inject(Packet(0, 3, 5, 0))
        net.inject(Packet(0, 5, 5, 0))
        net.step()
        net.step()
        nic = net.nics[0]
        assert len(nic._sending) == 2  # both packets started, distinct VCs

    def test_mshr_limits_outstanding(self):
        net = build(mshrs=2)
        for dst in (1, 2, 3, 5):
            net.inject(Packet(0, dst, 1, 0))
        net.step()
        net.step()
        nic = net.nics[0]
        assert nic.outstanding <= 2
        assert len(nic.queue) >= 2
        net.drain()
        assert nic.outstanding == 0

    def test_injection_records_stats(self):
        net = build()
        net.inject(Packet(0, 3, 1, 0))
        net.step()
        assert net.stats.injected_packets == 1


class TestEjection:
    def test_reassembly_and_callbacks(self):
        net = build()
        got = []
        net.nics[3].on_packet = lambda p, c: got.append((p.pid, c))
        p = Packet(0, 3, 5, 0)
        net.inject(p)
        net.drain()
        assert got == [(p.pid, p.eject_cycle)]

    def test_keep_ejected_collects_packets(self):
        net = build()
        net.nics[3].keep_ejected = True
        net.inject(Packet(0, 3, 1, 0))
        net.inject(Packet(0, 3, 1, 0))
        net.drain()
        assert len(net.nics[3].ejected) == 2

    def test_idle_flag(self):
        net = build()
        assert all(nic.idle for nic in net.nics)
        net.inject(Packet(0, 3, 1, 0))
        assert not net.nics[0].idle
        net.drain()
        assert all(nic.idle for nic in net.nics)
