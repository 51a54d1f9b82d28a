"""Pseudo-circuit speculation (paper Section IV.A), as the router runs it.

Each output keeps the input of its most recently terminated circuit
(``OutputPort.last_input``). At the end of a cycle a free output with
credits downstream restores the one invalidated circuit naming it, or of
several the one its history names, or none. ``RuleProbe`` checks these
rules at every termination and restoration and on every router that ran
its pipeline, over a run of both cores in lockstep
(``tests/network/test_router_rules``); each test here asserts that its
case arose.
"""

from repro.network.config import PSEUDO_S, NetworkConfig
from repro.network.simulator import Network
from repro.topology.mesh import Mesh
from repro.traffic.synthetic import SyntheticTraffic

from ..network.test_router_rules import SPECULATION, lone_flow, rule_cases


def test_history_records_last_termination():
    cases = rule_cases(SPECULATION)
    assert cases["no_credit"] and cases["conflict_output"]
    assert cases["conflict_input"] and cases["route_mismatch"]
    net = Network(Mesh(4, 4), SPECULATION[0], "xy", "dynamic", seed=5)
    net.run(100, SyntheticTraffic("uniform", 16, 0.35, 5, seed=5))
    outs = [out for router in net.routers for out in router.out_ports]
    assert any(out.last_input >= 0 for out in outs)
    net.reset()
    assert all(out.last_input == -1 for out in outs)


def test_single_candidate_restored():
    assert rule_cases(SPECULATION)["restore_single"]


def test_history_breaks_ties():
    assert rule_cases(SPECULATION)["restore_by_history"]


def test_tie_without_history_restores_nothing():
    assert rule_cases(SPECULATION)["no_restore_without_history"]


def test_no_restore_when_output_busy_or_congested():
    cases = rule_cases(SPECULATION)
    assert cases["no_restore_held"] and cases["no_restore_creditless"]


def test_valid_registers_are_not_candidates():
    """A lone flow's circuits stay valid, holding their outputs: nothing
    is terminated, so nothing is restored."""
    net = lone_flow(NetworkConfig(pseudo=PSEUDO_S))
    held = [(r.router_id, ip.port_id) for r in net.routers
            for ip in r.in_ports if ip.pc.valid]
    assert len(held) == 4
    for rid, port in held:
        router = net.routers[rid]
        assert router.out_ports[router.in_ports[port].pc.out_port] \
            .pc_holder == port
    assert net.stats.pc_restored == 0
    assert not net.stats.pc_terminations


def test_never_established_registers_ignored():
    """With speculation on, a lone flow leaves every input it did not
    cross with a never-established register, never restored."""
    net = lone_flow(NetworkConfig(pseudo=PSEUDO_S))
    untouched = [ip.pc for r in net.routers for ip in r.in_ports
                 if not ip.pc.valid]
    assert len(untouched) == 16 * 5 - 4
    assert all((reg.in_vc, reg.out_port) == (-1, -1) for reg in untouched)
    assert net.stats.pc_restored == 0
