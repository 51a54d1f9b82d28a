"""Integration tests specific to MECS multidrop channels."""

import pytest

from repro.network.config import NetworkConfig, PSEUDO_SB
from repro.network.flit import Packet
from repro.network.simulator import Network
from repro.topology.mecs import EAST, Mecs


def build(scheme=None, conc=1):
    cfg = NetworkConfig() if scheme is None else NetworkConfig(pseudo=scheme)
    return Network(Mecs(4, 4, conc), cfg, "xy", "dynamic", seed=1)


def test_one_network_hop_per_dimension():
    net = build()
    p = Packet(0, 15, 1, 0)  # corner to corner: one E drop + one N drop
    net.inject(p)
    net.drain()
    # Router hops: source router (inject->E), turn router (tap->N),
    # destination router (tap->eject).
    assert p.hops == 3


def test_far_drop_takes_longer_than_near_drop():
    def latency(dst):
        net = build()
        p = Packet(0, dst, 1, 0)
        net.inject(p)
        net.drain()
        return p.network_latency
    assert latency(3) == latency(1) + 2  # 2 extra wire cycles, same hops


def test_interleaved_drops_on_one_channel():
    """Two packets on the same output channel to different drops must both
    arrive even when in flight simultaneously."""
    net = build()
    far = Packet(0, 3, 5, 0)
    near = Packet(0, 1, 5, 0)
    net.inject(far)
    net.inject(near)
    net.drain()
    assert far.eject_cycle >= 0 and near.eject_cycle >= 0
    net.check_invariants()


def test_per_drop_credits_are_independent():
    net = build()
    out_e = net.routers[0].out_ports[EAST]
    assert len(out_e.endpoints) == 3
    # Take every credit of the near drop; the far drops stay available.
    for ovc in out_e.endpoints[0].ovcs:
        ovc.credits = 0
    assert out_e.any_credit()
    for endpoint in out_e.endpoints[1:]:
        for ovc in endpoint.ovcs:
            ovc.credits = 0
    assert not out_e.any_credit()


def test_pseudo_circuits_reused_across_drops():
    """A circuit is per (input, output port); packets to different drops of
    the same channel can share it."""
    net = build(PSEUDO_SB)
    for dst in (2, 3, 2, 3):
        p = Packet(0, dst, 1, net.cycle)
        net.inject(p)
        net.drain()
    assert net.stats.sa_bypass_flits > 0
    net.check_invariants()


@pytest.mark.parametrize("scheme", [None, PSEUDO_SB])
def test_concentrated_mecs_delivers(scheme):
    net = build(scheme, conc=2)
    n = net.topology.num_terminals
    packets = [Packet(i, (i + 9) % n, 2, 0) for i in range(0, n, 3)]
    for p in packets:
        net.inject(p)
    net.drain()
    assert all(p.eject_cycle >= 0 for p in packets)
    net.check_invariants()
