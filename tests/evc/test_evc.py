"""Unit and integration tests for the EVC baseline."""

import pytest

from repro.evc import EvcConfigError, EvcMesh, EvcRouting
from repro.evc.topology import EXPRESS_SPAN
from repro.harness.experiment import ExperimentConfig, build_network
from repro.network.config import BASELINE, PSEUDO, PSEUDO_SB
from repro.network.flit import Packet
from repro.topology.mesh import EAST, NORTH


class TestTopology:
    def test_port_counts(self):
        topo = EvcMesh(8, 8)
        assert topo.num_network_inports(0) == 8
        assert topo.num_network_outports(0) == 8

    def test_express_neighbor(self):
        topo = EvcMesh(8, 8)
        assert topo.express_neighbor(topo.router_at(0, 0), EAST) == \
            topo.router_at(2, 0)
        assert topo.express_neighbor(topo.router_at(7, 0), EAST) is None
        assert topo.express_neighbor(topo.router_at(6, 0), EAST) is None

    def test_express_channel_latency_covers_latch(self):
        topo = EvcMesh(4, 4)
        express = [ch for ch in topo.channels() if ch.src_port >= 4]
        assert express
        for ch in express:
            assert ch.endpoints[0].latency == EXPRESS_SPAN + 1

    def test_normal_channels_unchanged(self):
        topo = EvcMesh(4, 4)
        normal = [ch for ch in topo.channels() if ch.src_port < 4]
        assert all(ch.endpoints[0].latency == 1 for ch in normal)

    def test_span_validation(self):
        with pytest.raises(ValueError):
            EvcMesh(4, 4, span=1)


class TestRouting:
    def test_express_taken_when_far(self):
        topo = EvcMesh(8, 8)
        routing = EvcRouting(topo)
        p = Packet(0, 5, 1, 0)  # 5 hops east
        port, _ = routing.route(topo.router_at(0, 0), p)
        assert port == topo.express_port(EAST)

    def test_normal_when_one_hop_left(self):
        topo = EvcMesh(8, 8)
        routing = EvcRouting(topo)
        p = Packet(0, 1, 1, 0)
        assert routing.route(topo.router_at(0, 0), p) == (EAST, 0)

    def test_y_dimension_after_x(self):
        topo = EvcMesh(8, 8)
        routing = EvcRouting(topo)
        p = Packet(0, 16, 1, 0)  # straight north 2 hops
        port, _ = routing.route(topo.router_at(0, 0), p)
        assert port == topo.express_port(NORTH)

    def test_vc_partition(self):
        topo = EvcMesh(4, 4)
        routing = EvcRouting(topo)
        p = Packet(0, 5, 1, 0)
        assert routing.vc_limits(p, 4, out_port=0) == (0, 2)    # normal
        assert routing.vc_limits(p, 4, out_port=5) == (2, 4)    # express
        assert routing.vc_limits(p, 4, out_port=-1) == (0, 2)   # injection

    def test_requires_evc_mesh(self):
        from repro.topology.mesh import Mesh
        with pytest.raises(TypeError):
            EvcRouting(Mesh(4, 4))


def _network(topology):
    """An 8x8 network of ``topology`` built the way a figure point is."""
    return build_network(ExperimentConfig(
        topology=topology, kx=8, ky=8, concentration=1, routing="xy",
        scheme=BASELINE, pattern="uniform", backend="scalar"))


class TestNetwork:
    def test_delivery_with_express_paths(self):
        net = _network("evc_mesh")
        packets = [Packet(0, 56, 5, 0), Packet(7, 0, 1, 0),
                   Packet(9, 54, 5, 0)]
        for p in packets:
            net.inject(p)
        net.drain()
        assert all(p.eject_cycle >= 0 for p in packets)
        net.check_invariants()

    def test_express_paths_cut_latency(self):
        def latency(builder):
            net = builder()
            p = Packet(0, 7, 1, 0)  # 7 hops east on a mesh
            net.inject(p)
            net.drain()
            return p.network_latency
        assert (latency(lambda: _network("evc_mesh"))
                < latency(lambda: _network("mesh")))

    def test_pseudo_circuit_config_rejected(self):
        with pytest.raises(ValueError, match="--scheme baseline"):
            ExperimentConfig(topology="evc_mesh", kx=4, ky=4,
                             concentration=1, routing="xy", scheme=PSEUDO,
                             pattern="uniform")


class TestOneRule:
    """An EVC point is the baseline router under routing ``xy``; a config
    (and so the CLI) refuses anything else with ``EvcConfigError``, a
    ``ValueError`` (``test_pseudo_circuit_config_rejected``).
    """

    @pytest.mark.parametrize("scheme,routing", [
        (PSEUDO, "xy"), (PSEUDO_SB, "xy"), (BASELINE, "o1turn"),
        (BASELINE, "yx")])
    def test_experiment_config_refuses(self, scheme, routing):
        with pytest.raises(EvcConfigError, match="--scheme baseline"):
            ExperimentConfig(topology="evc_mesh", kx=4, ky=4,
                             concentration=1, routing=routing,
                             scheme=scheme, pattern="uniform")

    def test_cli_run_refuses_before_any_point_runs(self, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--topology", "evc_mesh", "--kx", "4", "--ky",
                  "4", "--cycles", "100"])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert "--scheme baseline" in err and not out
