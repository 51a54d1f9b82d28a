"""CreditMonitor: edge discovery, clean runs, and seeded credit faults."""

import pytest

from repro.core.violation import InvariantViolation
from repro.monitor import CreditMonitor

from .conftest import monitored_net


def _stealable_edge(monitor):
    """An inter-router edge whose counter has credits left to steal."""
    for edge in monitor._edges:
        if edge.nic is None and edge.ovc.credits > 0:
            return edge
    raise AssertionError("no edge with spare credits")


class TestCleanRun:
    def test_loaded_run_is_violation_free(self):
        monitor = CreditMonitor(strict=True, deep_every=16)
        net = monitored_net(monitor, rate=0.25)
        net.drain()
        monitor.finish(net)
        assert monitor.violations == []
        assert monitor.edge_checks > 0

    def test_discovers_every_edge_kind(self):
        monitor = CreditMonitor(strict=True)
        monitored_net(monitor, cycles=1, rate=0.0)
        # 4x4 mesh, 4 VCs: router->router edges plus one ejection and one
        # injection edge set per terminal.
        assert monitor._eject and monitor._inject
        kinds = {edge.nic is not None for edge in monitor._edges}
        assert kinds == {True, False}
        # Every discovered counter starts full before traffic.
        snap = monitor.snapshot()
        assert snap["edges"] == len(monitor._edges)


class TestFaultInjection:
    def test_stolen_credit_caught_within_one_cycle(self):
        monitor = CreditMonitor(strict=True, deep_every=1)
        net = monitored_net(monitor, rate=0.25)
        edge = _stealable_edge(monitor)
        edge.ovc.credits -= 1  # corrupt: credit vanishes
        with pytest.raises(InvariantViolation) as exc:
            net.step()
        err = exc.value
        assert err.rule == "credit_conservation"
        assert err.monitor == "credits"
        assert (err.router, err.port, err.vc) == (edge.router, edge.port,
                                                  edge.vc)
        assert err.cycle == net.cycle

    def test_counter_out_of_range_caught(self):
        monitor = CreditMonitor(strict=True, deep_every=1)
        net = monitored_net(monitor, rate=0.25)
        edge = _stealable_edge(monitor)
        edge.ovc.credits = edge.ovc.limit + 3
        with pytest.raises(InvariantViolation) as exc:
            net.step()
        assert exc.value.rule == "credit_range"

    def test_nonstrict_records_forged_credit(self):
        monitor = CreditMonitor(strict=False, deep_every=1)
        net = monitored_net(monitor, rate=0.25)
        for edge in monitor._edges:
            if (edge.nic is None
                    and edge.ovc.credits < edge.ovc.limit):
                edge.ovc.credits += 1  # corrupt: forged credit
                break
        else:
            raise AssertionError("no partially drained edge")
        net.step()
        rules = {v.rule for v in monitor.violations}
        assert "credit_conservation" in rules
