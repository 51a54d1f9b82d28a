"""Input VC state, as the router moves it.

A VC is IDLE until a head reaches the front of its buffer, in VA while
the head waits for an output VC, and ACTIVE until its tail departs; the
router's cycle writes these registers itself. Every traversal leaving an
ACTIVE VC, every VA grant going to a head and every read waiting for the
flit's ready cycle is checked by ``RuleProbe`` over a lockstep run of both
cores (``test_router_rules``).
"""

import pytest

from repro.instrument.probe import Probe
from repro.network.config import PSEUDO_B, NetworkConfig
from repro.network.flit import Packet
from repro.network.router import ProtocolError
from repro.network.simulator import Network
from repro.network.vc import VCState, VirtualChannel
from repro.topology.mecs import EAST as MECS_EAST, Mecs
from repro.topology.mesh import EAST, WEST, Mesh
from repro.traffic.synthetic import SyntheticTraffic

from .test_router_rules import SPECULATION, rule_cases

IDLE, ACTIVE = VCState.IDLE, VCState.ACTIVE


def line(config=NetworkConfig(), size=5):
    """A 4x2 mesh carrying one packet from terminal 0 to 3."""
    net = Network(Mesh(4, 2), config, "xy", "dynamic", seed=1)
    net.inject(Packet(0, 3, size, 0))
    return net


def drained(rate=0.4):
    net = Network(Mesh(4, 4), NetworkConfig(), "xy", "dynamic", seed=2)
    net.run(150, SyntheticTraffic("uniform", 16, rate, 5, seed=2))
    net.drain()
    return net


class TestTransitions:
    def test_initial_state(self):
        v = VirtualChannel(0)
        assert v.state == VCState.IDLE
        assert v.out_port == -1 and v.out_vc == -1 and not v.buffer

    def test_full_packet_lifecycle(self):
        """The VC a lone packet crosses router 1 on: IDLE, ACTIVE with
        its route and output VC while the packet passes, then IDLE and
        unbound once its tail has left."""
        net = line()
        vc = net.routers[1].in_ports[WEST].vcs[0]
        seen = [(vc.state, vc.out_port, vc.out_vc)]
        while not net.quiescent():
            net.step()
            if seen[-1] != (vc.state, vc.out_port, vc.out_vc):
                seen.append((vc.state, vc.out_port, vc.out_vc))
        assert seen == [(IDLE, -1, -1), (ACTIVE, EAST, 0), (IDLE, -1, -1)]
        assert vc.out_ep_obj is None and vc.out_ovc_obj is None

    def test_start_on_busy_vc_raises(self):
        """A head arriving to bypass onto a still-allocated VC is a
        protocol error."""
        net = line(NetworkConfig(pseudo=PSEUDO_B), size=1)
        net.drain()
        net.inject(Packet(0, 3, 1, net.cycle))
        ip = net.routers[1].in_ports[WEST]
        while not any(link._q and link._q[0][0] == net.cycle
                      and link._q[0][2].router == 1 for link in net.links):
            net.step()
        assert ip.pc.valid
        ip.vcs[ip.pc.in_vc].state = ACTIVE
        with pytest.raises(ProtocolError, match="still ACTIVE"):
            net.step()

    def test_grant_requires_va_state(self):
        """Each head gets one output VC per hop: VA grants equal head
        traversals."""
        stats = drained().stats
        assert stats.va_allocations == stats.e2e_packets > 0

    def test_finish_requires_active(self):
        """Drained, every tail has left: every VC is IDLE and unbound,
        every output VC unowned."""
        net = drained()
        for router in net.routers:
            for ip in router.in_ports:
                for vc in ip.vcs:
                    assert (vc.state, vc.out_port, vc.out_ep, vc.out_vc) \
                        == (IDLE, -1, 0, -1)
                    assert vc.out_ovc_obj is None
            for out in router.out_ports:
                for ep in out.endpoints:
                    assert all(ovc.owner is None for ovc in ep.ovcs)

    def test_multidrop_endpoint_recorded(self):
        """On a MECS channel the VC binds the drop its packet leaves at."""
        net = Network(Mecs(4, 4, 1), NetworkConfig(), "xy", "dynamic",
                      seed=1)
        net.inject(Packet(0, 3, 5, 0))
        bound = set()
        while not net.quiescent():
            net.step()
            bound |= {(router.router_id, vc.out_port, vc.out_ep,
                       vc.out_ep_obj is router.out_ports[vc.out_port]
                       .endpoints[vc.out_ep])
                      for router in net.routers for ip in router.in_ports
                      for vc in ip.vcs if vc.state == ACTIVE}
        assert (0, MECS_EAST, 2, True) in bound
        assert all(resolved for *_, resolved in bound)


class _Writes(Probe):
    def bind(self, network):
        self.events = []

    def on_buffer_write(self, cycle, router, in_port, vc, flit):
        self.events.append(("write", cycle, router))

    def on_va_grant(self, cycle, router, in_port, vc, out_port, out_vc,
                    flit):
        self.events.append(("grant", cycle, router))


class TestReadiness:
    def test_ready_requires_active_state_and_flit(self):
        assert rule_cases(SPECULATION)["traversed"]

    def test_ready_respects_flit_ready_cycle(self):
        """A head written in cycle c is granted in c + 1 at the earliest;
        at zero load, exactly then, at every router."""
        net = line(size=1)
        probe = _Writes()
        net.bind_probe(probe)
        net.drain()
        writes = {r: c for kind, c, r in probe.events if kind == "write"}
        grants = {r: c for kind, c, r in probe.events if kind == "grant"}
        assert writes.keys() == grants.keys() == {0, 1, 2, 3}
        assert all(grants[r] == writes[r] + 1 for r in writes)

    def test_buffered_flit_count_matches_buffers(self):
        """The count a router's idle test reads is the flits its VCs
        hold."""
        net = line()
        while not net.quiescent():
            net.step()
            for router in net.routers:
                assert router._buffered_flits == sum(
                    len(vc.buffer) for ip in router.in_ports
                    for vc in ip.vcs)
