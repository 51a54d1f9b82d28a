"""Input VC buffers: each VC's deque, bounded by ``config.buffer_depth``.

Credit flow control keeps a buffer within its depth; the router's buffer
write raises ``BufferOverflowError`` if a flit ever arrives at a full one.
The FIFO order, the depth bound and VA's reads of the front are checked
at every event by ``RuleProbe`` over a lockstep run of both cores
(``test_router_rules``).
"""

import pytest

from repro.network.config import NetworkConfig
from repro.network.flit import Packet
from repro.network.simulator import Network
from repro.network.vc import BufferOverflowError
from repro.topology.mesh import Mesh
from repro.traffic.synthetic import SyntheticTraffic

from .test_router_rules import SPECULATION, rule_cases


def loaded(cycles=100, **config):
    net = Network(Mesh(4, 4), NetworkConfig(**config), "xy", "dynamic",
                  seed=2)
    net.run(cycles, SyntheticTraffic("uniform", 16, 0.4, 5, seed=2))
    return net


class TestInputVcBuffers:
    def test_zero_depth_is_refused(self):
        with pytest.raises(ValueError, match="buffer_depth"):
            NetworkConfig(buffer_depth=0)

    def test_fifo_order(self):
        """Every read pops the oldest flit written into its VC."""
        assert rule_cases(SPECULATION)["read"]

    def test_front_does_not_remove(self):
        """VA reads the head at the front and leaves it there; a head
        refused an output VC waits at the front in VA."""
        cases = rule_cases(SPECULATION)
        assert cases["va_at_front"] and cases["waiting_in_va"]

    def test_overflow_raises(self):
        """A flit arriving at a VC already holding ``buffer_depth`` flits
        is a flow-control violation, not a drop."""
        net = Network(Mesh(4, 2), NetworkConfig(buffer_depth=2), "xy",
                      "dynamic", seed=1)
        net.inject(Packet(0, 3, 5, 0))

        def arriving(net):
            """The next cycle's first link arrival, if any."""
            return next((link._q[0] for link in net.links
                         if link._q and link._q[0][0] == net.cycle), None)
        while arriving(net) is None:
            net.step()
        _, flit, ep = arriving(net)
        buffer = net.routers[ep.router].in_ports[ep.in_port].vcs[
            flit.vc].buffer
        buffer.extend(Packet(1, 2, 2, 0).make_flits()[len(buffer):])
        with pytest.raises(BufferOverflowError,
                           match="full 2-flit buffer"):
            net.step()

    def test_occupancy_masks_match_the_buffers(self):
        """The scans read the front of occupied VCs only: the occupancy
        masks they walk match the non-empty buffers after every cycle."""
        net = Network(Mesh(4, 4), NetworkConfig(), "xy", "dynamic", seed=2)
        traffic = SyntheticTraffic("uniform", 16, 0.4, 5, seed=2)
        for cycle in range(100):
            traffic.tick(net, cycle)
            net.step()
            net.check_invariants()

    def test_buffers_fill_to_their_depth(self):
        """Buffers fill up to their depth and never past it."""
        assert rule_cases(SPECULATION)["buffer_full"]

    def test_reset_empties_buffers_in_place(self):
        """Reset empties every buffer in place: whoever holds a VC's deque
        (the monitors do) keeps holding the live one."""
        net = loaded()
        held = [vc.buffer for r in net.routers for ip in r.in_ports
                for vc in ip.vcs if vc.buffer]
        assert held
        net.reset()
        assert not any(held)
        assert all(any(vc.buffer is q for r in net.routers
                       for ip in r.in_ports for vc in ip.vcs)
                   for q in held[:3])
