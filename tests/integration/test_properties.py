"""Property-based end-to-end tests.

Hypothesis drives random workloads through randomly chosen configurations
and checks the conservation and safety invariants that must hold for ANY
combination: every injected packet is delivered exactly once, credits stay
within bounds, and pseudo-circuit state remains consistent.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.network.config import (ALL_SCHEMES, NetworkConfig)
from repro.network.flit import Packet
from repro.network.simulator import Network
from repro.topology import make_topology

TOPOLOGIES = [("mesh", 3, 3, 1), ("cmesh", 2, 2, 4), ("fbfly", 3, 3, 2),
              ("mecs", 3, 3, 2)]


@st.composite
def workload(draw):
    topo_spec = draw(st.sampled_from(TOPOLOGIES))
    terminals = topo_spec[1] * topo_spec[2] * topo_spec[3]
    n_packets = draw(st.integers(1, 25))
    packets = []
    for _ in range(n_packets):
        src = draw(st.integers(0, terminals - 1))
        dst = draw(st.integers(0, terminals - 1))
        if src == dst:
            continue
        size = draw(st.sampled_from([1, 2, 5]))
        packets.append((src, dst, size))
    scheme = draw(st.sampled_from(ALL_SCHEMES))
    routing = draw(st.sampled_from(["xy", "yx", "o1turn"]))
    va = draw(st.sampled_from(["static", "dynamic"]))
    spread = draw(st.integers(0, 3))
    return topo_spec, packets, scheme, routing, va, spread


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(workload())
def test_every_packet_delivered_exactly_once(spec):
    (name, kx, ky, conc), packets, scheme, routing, va, spread = spec
    topo = make_topology(name, kx, ky, conc)
    net = Network(topo, NetworkConfig(pseudo=scheme), routing, va, seed=7)
    injected = []
    for i, (src, dst, size) in enumerate(packets):
        p = Packet(src, dst, size, net.cycle)
        net.inject(p)
        injected.append(p)
        for _ in range(i % (spread + 1) if spread else 0):
            net.step()
    net.drain(max_cycles=50_000)
    for _ in range(5):
        net.step()  # let in-flight credit returns land
    # Conservation: exactly once, all flits.
    assert net.stats.ejected_packets == len(injected)
    assert net.stats.ejected_flits == sum(p.size for p in injected)
    for p in injected:
        assert p.eject_cycle >= p.inject_cycle >= p.create_cycle
        assert p.hops >= 1
    # Safety: pseudo-circuit and credit invariants.
    net.check_invariants()
    # All credits must have returned once quiescent.
    for router in net.routers:
        for out in router.out_ports:
            for ep in out.endpoints:
                for ovc in ep.ovcs:
                    assert ovc.credits == ovc.limit
                    assert ovc.owner is None


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(ALL_SCHEMES), st.integers(0, 10_000))
def test_pseudo_circuit_never_reorders_a_flow(scheme, seed):
    """Packets of one flow are delivered in injection order regardless of
    scheme (wormhole + per-VC FIFO order)."""
    topo = make_topology("mesh", 4, 2, 1)
    net = Network(topo, NetworkConfig(pseudo=scheme), "xy", "static",
                  seed=seed)
    order = []
    net.nics[3].on_packet = lambda p, c: order.append(p.pid)
    sent = []
    for i in range(8):
        p = Packet(0, 3, 1 + (i % 2) * 4, net.cycle)
        net.inject(p)
        sent.append(p.pid)
        if i % 3 == 0:
            net.step()
    net.drain()
    assert order == sent
