"""The scalar core's probe event stream, pinned event by event.

``NetworkStats`` parity cannot see the order in which the hooks fire, but
the tracer and the monitors consume exactly that order. A probe that
implements every scalar hook logs ``(hook, cycle, ids...)`` for three
points -- the fig8 point shape (cmesh 4x4x4, radix trace behind four
MSHRs) under the best baseline and under Pseudo+S+B, and a synthetic
Pseudo+S+B mesh point -- and each event list is pinned by its SHA-256.
A flit is named by its packet's (src, dst, create cycle) and its index,
never by the process-global packet id.
"""

import hashlib

import pytest

from repro.harness.traces import get_trace
from repro.instrument import Probe
from repro.network.config import BASELINE, PSEUDO_SB, NetworkConfig
from repro.network.simulator import Network
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic
from repro.traffic.trace import TraceReplayTraffic


def _flit(flit):
    packet = flit.packet
    return packet.src, packet.dst, packet.create_cycle, flit.index


def _packet(packet):
    return packet.src, packet.dst, packet.create_cycle, packet.size


class EventLog(Probe):
    """Every scalar hook, logged with the ids it was handed."""

    def __init__(self):
        self.events: list[tuple] = []

    def on_cycle_start(self, cycle, network):
        self.events.append(("cycle", cycle))

    def on_buffer_write(self, cycle, router, in_port, vc, flit):
        self.events.append(("bw", cycle, router, in_port, vc, _flit(flit)))

    def on_va_grant(self, cycle, router, in_port, vc, out_port, out_vc,
                    flit):
        self.events.append(("va", cycle, router, in_port, vc, out_port,
                            out_vc, _flit(flit)))

    def on_traverse(self, cycle, router, in_port, vc, out_port, via, read,
                    flit):
        self.events.append(("st", cycle, router, in_port, vc, out_port, via,
                            read, _flit(flit)))

    def on_link(self, cycle, link, router, in_port, flit):
        self.events.append(("lt", cycle, link, router, in_port, _flit(flit)))

    def on_credit_restore(self, cycle, router, port, vc):
        self.events.append(("credit", cycle, router, port, vc))

    def on_pc_establish(self, cycle, router, in_port, in_vc, out_port,
                        refreshed):
        self.events.append(("pc_establish", cycle, router, in_port, in_vc,
                            out_port, refreshed))

    def on_pc_restore(self, cycle, router, in_port, out_port):
        self.events.append(("pc_restore", cycle, router, in_port, out_port))

    def on_pc_terminate(self, cycle, router, in_port, out_port, reason):
        self.events.append(("pc_terminate", cycle, router, in_port, out_port,
                            reason.name))

    def on_inject(self, cycle, terminal, packet):
        self.events.append(("inject", cycle, terminal, _packet(packet)))

    def on_eject(self, cycle, terminal, packet):
        self.events.append(("eject", cycle, terminal, _packet(packet)))

    def digest(self) -> str:
        text = "\n".join(map(repr, self.events))
        return hashlib.sha256(text.encode()).hexdigest()


def _trace_point(routing, scheme):
    log = EventLog()
    net = Network(make_topology("cmesh", 4, 4, 4),
                  NetworkConfig(pseudo=scheme, mshrs=4), routing=routing,
                  vc_policy="dynamic", seed=7)
    net.bind_probe(log)
    replay = TraceReplayTraffic(get_trace("radix", cycles=150, warmup=200,
                                          seed=7))
    net.run(replay.horizon, replay)
    net.drain(max_cycles=500_000)
    return log, net


def _mesh_point():
    log = EventLog()
    topo = make_topology("mesh", 4, 4, 1)
    net = Network(topo, NetworkConfig(pseudo=PSEUDO_SB), routing="xy",
                  vc_policy="dynamic", seed=3)
    net.bind_probe(log)
    net.run(300, SyntheticTraffic("uniform", topo.num_terminals, 0.1, 5,
                                  seed=3))
    net.drain(max_cycles=100_000)
    return log, net


#: Recorded before the router's phases were folded into one ``step``.
POINTS = {
    "cmesh-radix-o1turn-baseline": (
        lambda: _trace_point("o1turn", BASELINE),
        "e99f834b35be32a8a51b51d634fbb4fb8775a9d2a0f4dfacd6f4071c5cca9fa6"),
    "cmesh-radix-xy-pseudo_sb": (
        lambda: _trace_point("xy", PSEUDO_SB),
        "271b3f9b9a2c5cceff10f6a92369e6a33c34e95d6ee7ca1826199991443cf642"),
    "mesh4x4-uniform-pseudo_sb": (
        _mesh_point,
        "2162aebaf06334ce13b69cc5a4f10d3c2bce94ca2621ae4b7e203bc6d05f1172"),
}


@pytest.mark.parametrize("point", POINTS.values(), ids=POINTS)
def test_event_order_is_pinned(point):
    run, digest = point
    log, net = run()
    kinds = {event[0] for event in log.events}
    assert {"cycle", "bw", "va", "st", "lt", "credit", "inject",
            "eject"} <= kinds
    if net.config.pseudo.enabled:
        assert {"pc_establish", "pc_terminate", "pc_restore"} <= kinds
    assert log.digest() == digest
