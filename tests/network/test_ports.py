"""Router port structures: plain records the router's cycle reads.

``OutVC`` holds an owner and an int credit count up to ``limit``;
``OutputPort`` the circuit holder and speculation's history register
(``last_input``); ``InputPort`` the VCs, the circuit register and the
credit returns due back upstream (``credit_due``).
"""

from repro.network.config import NetworkConfig
from repro.network.flit import Packet
from repro.network.ports import InputPort, OutEndpoint, OutputPort, OutVC
from repro.network.simulator import Network
from repro.topology.mesh import EAST, WEST, Mesh
from repro.traffic.synthetic import SyntheticTraffic


def lone(credit_delay=1):
    """A 4x2 mesh carrying one single-flit packet from terminal 0 to 3."""
    net = Network(Mesh(4, 2), NetworkConfig(credit_delay=credit_delay),
                  "xy", "dynamic", seed=1)
    net.inject(Packet(0, 3, 1, 0))
    return net


class TestOutVC:
    def test_initially_free_with_full_credits(self):
        ovc = OutVC(4)
        assert ovc.free and ovc.where is None
        assert ovc.credits == ovc.limit == 4

    def test_ownership(self):
        ovc = OutVC(4)
        ovc.owner = (2, 1)
        assert not ovc.free


class TestOutEndpoint:
    def test_credit_restore_by_vc(self):
        """A lone flit on VC 0 moves VC 0's credits of the endpoint it
        leaves by, down and back up; the other VCs' stay put."""
        net = lone()
        ovcs = net.routers[0].out_ports[EAST].endpoints[0].ovcs
        seen = set()
        while not net.quiescent():
            net.step()
            seen.add(tuple(ovc.credits for ovc in ovcs))
        for _ in range(3):
            net.step()
        assert seen >= {(4, 4, 4, 4), (3, 4, 4, 4)}
        assert seen <= {(4, 4, 4, 4), (3, 4, 4, 4)}
        assert [ovc.credits for ovc in ovcs] == [4, 4, 4, 4]

    def test_any_credit(self):
        ep = OutEndpoint(0, 0, 1, num_vcs=2, buffer_depth=1)
        port = OutputPort(0, [ep])
        assert port.any_credit()
        ep.ovcs[0].credits = 0
        assert port.any_credit()
        ep.ovcs[1].credits = 0
        assert not port.any_credit()


class TestOutputPort:
    def test_any_credit_across_endpoints(self):
        eps = [OutEndpoint(0, 0, 1, 1, 1), OutEndpoint(1, 0, 2, 1, 1)]
        port = OutputPort(0, eps)
        eps[0].ovcs[0].credits = 0
        assert port.any_credit()
        eps[1].ovcs[0].credits = 0
        assert not port.any_credit()

    def test_initial_pc_state(self):
        port = OutputPort(3, [])
        assert port.pc_holder == -1
        assert port.last_input == -1
        assert not port.is_ejection


class TestInputPort:
    def test_credit_roundtrip_to_upstream(self):
        """The flit leaving router 1's west input queues its credit there,
        due ``credit_delay`` cycles on; router 0's east endpoint gets it
        back then."""
        net = lone(credit_delay=3)
        ip = net.routers[1].in_ports[WEST]
        upstream = net.routers[0].out_ports[EAST].endpoints[0].ovcs[0]
        assert ip.upstream.ovcs[0] is upstream
        while not ip.credit_due:
            net.step()
        due = net.cycle - 1 + 3
        assert list(ip.credit_due) == [(due, 0)] and upstream.credits == 3
        while net.cycle <= due:
            net.step()
        assert not ip.credit_due and upstream.credits == 4

    def test_no_upstream_is_noop(self):
        """Input ports without a channel (the mesh edge) have no upstream
        and never hold a credit return."""
        net = Network(Mesh(4, 4), NetworkConfig(), "xy", "dynamic", seed=1)
        traffic = SyntheticTraffic("uniform", 16, 0.3, 5, seed=1)
        edges = [ip for router in net.routers for ip in router.in_ports
                 if ip.upstream is None]
        assert len(edges) == 16
        for cycle in range(100):
            traffic.tick(net, cycle)
            net.step()
            assert not any(ip.credit_due for ip in edges)

    def test_locality_trackers_initial(self):
        ip = InputPort(0, 1)
        assert ip.last_pair is None and ip.last_out == -1
        assert not ip.credit_due and ip.upstream is None
