"""ProgressWatchdog: stall/starvation detection, fast-forward awareness."""

import pytest

from repro.core.violation import InvariantViolation
from repro.monitor import ProgressWatchdog

from .conftest import monitored_net


class _StubNet:
    def __init__(self, cycle=0):
        self.cycle = cycle


class _Pkt:
    size = 5


def _fresh(strict=False, **kwargs):
    watchdog = ProgressWatchdog(strict=strict, **kwargs)
    watchdog.bind(_StubNet())
    return watchdog


class TestUnit:
    def test_stall_fires_after_limit(self):
        wd = _fresh(stall_limit=5, scan_every=0)
        wd.on_inject(0, 0, _Pkt())
        for cycle in range(7):
            wd.on_cycle_start(cycle, None)
        assert [v.rule for v in wd.violations] == ["deadlock"]
        assert wd.max_stall == 6

    def test_progress_rearms_the_stall_clock(self):
        wd = _fresh(stall_limit=5, scan_every=0)
        wd.on_inject(0, 0, _Pkt())
        for cycle in range(20):
            wd.on_cycle_start(cycle, None)
            if cycle % 4 == 0:
                wd.on_traverse(cycle, 0, 0, 0, 1, "sa", True, None)
        assert wd.violations == []

    def test_no_stall_without_in_flight_packets(self):
        wd = _fresh(stall_limit=5, scan_every=0)
        for cycle in range(50):
            wd.on_cycle_start(cycle, None)
        assert wd.violations == []

    def test_fast_forward_jump_does_not_count(self):
        """A quiescence fast-forward skips provably event-free cycles;
        the stall clock must not advance across it."""
        wd = _fresh(stall_limit=5, scan_every=0)
        wd.on_inject(0, 0, _Pkt())
        wd.on_cycle_start(0, None)
        wd.on_cycle_start(1, None)
        wd.on_cycle_start(500, None)  # jump of 498 cycles
        wd.on_cycle_start(501, None)
        assert wd.violations == []
        assert wd.max_stall <= 3

    def test_starvation_fires_for_unread_buffer(self):
        wd = _fresh(starve_limit=10, scan_every=1, stall_limit=10 ** 6)
        wd.on_inject(0, 0, _Pkt())
        wd.on_buffer_write(0, router=2, in_port=1, vc=3, flit=None)
        for cycle in range(15):
            wd.on_cycle_start(cycle, None)
        rules = [v.rule for v in wd.violations]
        assert rules == ["starvation"]
        err = wd.violations[0]
        assert (err.router, err.port, err.vc) == (2, 1, 3)

    def test_reads_keep_starvation_quiet(self):
        wd = _fresh(starve_limit=10, scan_every=1, stall_limit=10 ** 6)
        wd.on_buffer_write(0, 2, 1, 3, None)
        wd.on_buffer_write(0, 2, 1, 3, None)
        for cycle in range(30):
            wd.on_cycle_start(cycle, None)
            if cycle % 5 == 0:
                # Alternate write/read traffic on the same VC.
                wd.on_traverse(cycle, 2, 1, 3, 0, "sa", True, None)
                wd.on_buffer_write(cycle, 2, 1, 3, None)
        assert wd.violations == []

    def test_finish_flags_undelivered_packets(self):
        wd = _fresh()
        wd.on_inject(0, 0, _Pkt())

        class _Quiet(_StubNet):
            def quiescent(self):
                return True

        wd.finish(_Quiet(cycle=100))
        assert [v.rule for v in wd.violations] == ["deadlock"]


class TestIntegration:
    def test_loaded_run_is_violation_free(self):
        watchdog = ProgressWatchdog(strict=True)
        net = monitored_net(watchdog, rate=0.25)
        net.drain()
        watchdog.finish(net)
        assert watchdog.violations == []
        assert watchdog.in_flight_packets == 0
        assert watchdog.max_stall < watchdog.stall_limit

    def test_credit_loss_deadlock_detected(self):
        """Zeroing every credit counter mid-run freezes all in-flight
        packets; the watchdog must call it a deadlock."""
        watchdog = ProgressWatchdog(strict=True, stall_limit=60)
        net = monitored_net(watchdog, rate=0.25, cycles=120)
        assert watchdog.in_flight_packets > 0
        for router in net.routers:
            for out in router.out_ports:
                for ep in out.endpoints:
                    for ovc in ep.ovcs:
                        ovc.credits = 0
        for nic in net.nics:
            for ovc in nic.inject_state.ovcs:
                ovc.credits = 0
        with pytest.raises(InvariantViolation) as exc:
            net.run(500)
        assert exc.value.rule == "deadlock"
        assert exc.value.monitor == "watchdog"
