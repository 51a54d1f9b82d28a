"""Overhead gate: structural and bit-identity checks."""

import pytest

from repro.instrument import FlitTracer, identity_check, overhead_gate
from repro.instrument.overhead import OverheadGateError, assert_probes_cold
from repro.network.config import PSEUDO_SB, NetworkConfig
from repro.network.simulator import build_network
from repro.topology import make_topology


def test_default_network_is_cold():
    topo = make_topology("mesh", 4, 4, 1)
    config = NetworkConfig(num_vcs=2, buffer_depth=2, pseudo=PSEUDO_SB)
    assert_probes_cold(build_network(topo, config=config))


def test_hot_probe_is_detected():
    topo = make_topology("mesh", 4, 4, 1)
    config = NetworkConfig(num_vcs=2, buffer_depth=2, pseudo=PSEUDO_SB)
    net = build_network(topo, config=config, probe=FlitTracer())
    with pytest.raises(OverheadGateError):
        assert_probes_cold(net)


def test_identity_check_passes():
    report = identity_check(cycles=200)
    assert report["stats_identical"]
    assert report["traced_events"] > 0
    assert sum(report["pc_terminations"].values()) > 0


def test_overhead_gate_runs_quiet(capsys):
    report = overhead_gate(cycles=200, show=False)
    assert report["probes_cold"] and report["stats_identical"]
    assert capsys.readouterr().out == ""
