"""Router protocol-violation detection and wiring checks."""

import pytest

from repro.network.config import NetworkConfig
from repro.network.flit import Packet
from repro.network.router import ProtocolError, Router
from repro.network.simulator import Network
from repro.topology.base import Channel
from repro.topology.mesh import Mesh


def test_body_flit_on_idle_vc_is_a_protocol_error(stats, config):
    from repro.routing.dor import xy_routing
    from repro.vcalloc import make_vc_policy
    topo = Mesh(2, 2)
    router = Router(0, 5, 5, config, xy_routing(topo),
                    make_vc_policy("dynamic"), stats)
    body = Packet(0, 1, 5, 0).make_flits()[1]
    body.vc = 0
    router.accept_flit(4, body)
    router.step(0)  # buffer write happens here
    with pytest.raises(ProtocolError):
        router.step(1)  # body at the front of an IDLE VC


def test_double_wired_input_port_rejected():
    class BadTopology(Mesh):
        def channels(self):
            chans = super().channels()
            dup = chans[0]
            return chans + [Channel(
                src_router=dup.src_router,
                src_port=2,  # different source port, same destination tap
                endpoints=dup.endpoints)]

    with pytest.raises(ValueError):
        Network(BadTopology(2, 2), NetworkConfig(), "xy", "dynamic")


def test_check_invariants_detects_corruption():
    net = Network(Mesh(2, 2), NetworkConfig(), "xy", "dynamic")
    router = net.routers[0]
    # Forge an inconsistent pseudo-circuit holder.
    reg = router.in_ports[0].pc
    reg.in_vc, reg.out_port, reg.valid = 0, 1, True
    with pytest.raises(AssertionError):
        router.check_invariants()


def test_flit_buffer_overflow_is_fatal_not_silent():
    """Force a flit at a full buffer: the simulator must raise, not drop."""
    from repro.network.vc import BufferOverflowError
    net = Network(Mesh(2, 2), NetworkConfig(buffer_depth=1), "xy", "dynamic")
    router = net.routers[0]
    flits = Packet(0, 3, 5, 0).make_flits()
    for f in flits[:2]:
        f.vc = 0
        router.accept_flit(0, f)
    with pytest.raises(BufferOverflowError):
        router.step(0)
