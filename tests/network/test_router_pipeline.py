"""Router pipeline timing tests.

These pin the cycle-level behaviour the reproduction depends on: 4-cycle
hops for the baseline (BW | VA+SA | ST | LT), 3 with pseudo-circuit reuse,
2 with buffer bypassing, and wormhole ordering.
"""

import pytest

from repro.network.config import (BASELINE, PSEUDO, PSEUDO_SB,
                                  NetworkConfig)
from repro.network import nic, router
from repro.network.flit import Packet
from repro.network.link import Link
from repro.network.router import Router
from repro.network.simulator import Network
from repro.topology.mesh import Mesh
from repro.traffic.synthetic import SyntheticTraffic


def net_for(scheme, kx=4, ky=2, vc_policy="static"):
    return Network(Mesh(kx, ky), NetworkConfig(pseudo=scheme),
                   routing="xy", vc_policy=vc_policy, seed=1)


def send_and_measure(net, src, dst, size=1, repeats=1):
    """Inject ``repeats`` identical packets sequentially; return the last
    packet's network latency."""
    latency = None
    for _ in range(repeats):
        packet = Packet(src, dst, size, net.cycle)
        net.inject(packet)
        net.drain()
        latency = packet.network_latency
    return latency


class TestBaselineTiming:
    def test_single_hop_latency(self):
        # 1 network hop: inject link (1) + BW/SA/ST+LT through two routers
        # (source and destination) + eject link.
        lat3 = send_and_measure(net_for(BASELINE), 0, 3)
        lat1 = send_and_measure(net_for(BASELINE), 0, 1)
        assert lat3 - lat1 == 8  # 2 extra hops at 4 cycles each

    def test_per_hop_is_four_cycles(self):
        lat_a = send_and_measure(net_for(BASELINE), 0, 1)
        lat_b = send_and_measure(net_for(BASELINE), 0, 2)
        assert lat_b - lat_a == 4

    def test_serialization_cost_of_multi_flit_packets(self):
        one = send_and_measure(net_for(BASELINE), 0, 2, size=1)
        five = send_and_measure(net_for(BASELINE), 0, 2, size=5)
        # 4 extra flits at 1/cycle plus one credit-turnaround bubble: a
        # 4-flit buffer with a 5-cycle credit loop peaks at 4/5 flit/cycle
        # per VC, so the fifth flit stalls once.
        assert five - one == 5

    def test_no_bypass_counters_in_baseline(self):
        net = net_for(BASELINE)
        send_and_measure(net, 0, 3, repeats=3)
        assert net.stats.sa_bypass_flits == 0
        assert net.stats.buf_bypass_flits == 0


class TestPseudoCircuitTiming:
    def test_warm_circuit_saves_one_cycle_per_hop(self):
        cold = send_and_measure(net_for(PSEUDO), 0, 3)
        warm = send_and_measure(net_for(PSEUDO), 0, 3, repeats=3)
        # 4 routers on the path (0,1,2,3) each save 1 cycle when warm.
        assert cold - warm == 4

    def test_buffer_bypass_saves_two_cycles_per_hop(self):
        cold = send_and_measure(net_for(PSEUDO_SB), 0, 3)
        warm = send_and_measure(net_for(PSEUDO_SB), 0, 3, repeats=3)
        assert cold - warm == 8

    def test_first_packet_pays_baseline_latency(self):
        assert send_and_measure(net_for(PSEUDO), 0, 3) == \
            send_and_measure(net_for(BASELINE), 0, 3)

    def test_warm_reuse_counts_flit_bypasses(self):
        net = net_for(PSEUDO_SB)
        send_and_measure(net, 0, 3, repeats=3)
        assert net.stats.sa_bypass_flits > 0
        assert net.stats.buf_bypass_flits > 0


class TestDelivery:
    def test_all_flits_arrive_exactly_once(self):
        net = net_for(BASELINE)
        packets = [Packet(0, 7, 5, 0), Packet(3, 4, 1, 0), Packet(6, 1, 5, 0)]
        for p in packets:
            net.inject(p)
        net.drain()
        assert net.stats.ejected_packets == 3
        assert net.stats.ejected_flits == 11
        for p in packets:
            assert p.eject_cycle > p.inject_cycle >= 0

    @pytest.mark.parametrize("scheme", [BASELINE, PSEUDO, PSEUDO_SB])
    def test_wormhole_order_with_back_to_back_packets(self, scheme):
        net = net_for(scheme)
        # Two multi-flit packets on the same flow, injected back to back.
        a = Packet(0, 3, 5, 0)
        b = Packet(0, 3, 5, 0)
        net.inject(a)
        net.inject(b)
        net.drain()
        assert a.eject_cycle < b.eject_cycle
        net.check_invariants()

    def test_hop_counting(self):
        net = net_for(BASELINE)
        p = Packet(0, 3, 1, 0)
        net.inject(p)
        net.drain()
        # Router 0 (inject->E), routers 1, 2, router 3 (W->eject).
        assert p.hops == 4


class TestFlitHopPath:
    """An unprobed flit-hop updates credits, VC state and link delivery
    in place: no credit error is built off a raising branch, and FIFO
    links are staged by the network loop, not ``Link.tick``."""

    @pytest.mark.parametrize("scheme", [BASELINE, PSEUDO_SB],
                             ids=lambda s: s.label)
    def test_no_reference_method_on_the_success_path(self, scheme,
                                                     monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called on a flit-hop's success path")

        for owner, name in ((router, "credit_error"),
                            (nic, "credit_error"),
                            (Link, "tick"), (Router, "accept_flit")):
            monkeypatch.setattr(owner, name, forbidden)
        net = Network(Mesh(4, 4), NetworkConfig(pseudo=scheme),
                      routing="xy", vc_policy="dynamic", seed=3)
        net.run(300, SyntheticTraffic("uniform", 16, 0.2, 5, seed=3))
        net.drain()
        stats = net.stats
        assert stats.ejected_packets == stats.injected_packets > 100
        assert (stats.buf_bypass_flits > 0) == scheme.buffer_bypass
        net.check_invariants()
