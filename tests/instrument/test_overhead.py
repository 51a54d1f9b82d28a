"""Overhead gate: structural and bit-identity checks."""

import pytest

from repro.instrument import FlitTracer, Probe, identity_check, overhead_gate
from repro.instrument.overhead import OverheadGateError, assert_probes_cold
from repro.monitor import registry
from repro.network.config import PSEUDO_SB, NetworkConfig
from repro.network.simulator import Network
from repro.topology import make_topology


def test_default_network_is_cold():
    topo = make_topology("mesh", 4, 4, 1)
    config = NetworkConfig(num_vcs=2, buffer_depth=2, pseudo=PSEUDO_SB)
    assert_probes_cold(Network(topo, config))


def test_hot_probe_is_detected():
    topo = make_topology("mesh", 4, 4, 1)
    config = NetworkConfig(num_vcs=2, buffer_depth=2, pseudo=PSEUDO_SB)
    net = Network(topo, config)
    net.bind_probe(FlitTracer())
    with pytest.raises(OverheadGateError):
        assert_probes_cold(net)


def test_identity_check_passes():
    report = identity_check(cycles=200)
    assert report["stats_identical"]
    for run in report["runs"]:
        assert run["traced_events"] > 0
        assert sum(run["metrics"]["run"]["pc_terminations"].values()) > 0


def test_overhead_gate_runs_quiet(capsys):
    report = overhead_gate(cycles=200, show=False)
    assert report["probes_cold"] and report["stats_identical"]
    assert capsys.readouterr().out == ""


class CreditThief(Probe):
    """An observer that perturbs: on the first cycle it sees from 20 on
    it takes one credit from the chip."""

    vector_hooks = True
    taken = False

    def on_cycle_start(self, cycle, network):
        if cycle >= 20 and not self.taken:
            self.taken = True
            if hasattr(network, "routers"):
                network.nics[0].inject_state.ovcs[0].credits -= 1
            else:
                network.cred[0] -= 1


@pytest.mark.parametrize("backend", ["scalar", "vectorized"])
def test_a_perturbing_observer_fails_the_gate(backend, monkeypatch):
    """The gate attaches what ``attach_checks`` attaches: an observer
    added there that drops a credit fails it, on either core."""
    if backend != "scalar":
        pytest.importorskip("numpy")
    attach = registry.attach_checks
    monkeypatch.setattr(
        registry, "attach_checks",
        lambda net, probe=None, stride=1: attach(net, CreditThief(), stride))
    with pytest.raises(OverheadGateError, match=f"{backend} at rate"):
        overhead_gate(cycles=200, show=False, backend=backend)
