"""ConservationMonitor: clean runs stay silent; corruption is caught."""

import pytest

from repro.core.violation import InvariantViolation
from repro.monitor import ConservationMonitor

from .conftest import monitored_net, occupied_buffers


class TestCleanRun:
    def test_loaded_run_is_violation_free(self):
        monitor = ConservationMonitor(strict=True, deep_every=16)
        monitored_net(monitor, rate=0.25)
        assert monitor.violations == []
        assert monitor.injected_flits > monitor.ejected_flits  # undrained
        assert monitor.buffer_checks > 0

    def test_drained_run_balances_and_finish_passes(self):
        monitor = ConservationMonitor(strict=True)
        net = monitored_net(monitor, rate=0.1, cycles=150)
        net.drain()
        monitor.finish(net)
        assert monitor.violations == []
        assert monitor.injected_flits == monitor.ejected_flits
        assert not monitor._open

    def test_snapshot_shape(self):
        monitor = ConservationMonitor(strict=True)
        net = monitored_net(monitor, rate=0.1, cycles=100)
        net.drain()
        snap = monitor.snapshot()
        assert snap["injected_flits"] == snap["ejected_flits"]
        assert snap["violations"] == 0
        assert snap["max_in_flight_flits"] > 0


class TestFaultInjection:
    def test_lost_flit_caught_within_one_cycle(self):
        """Dropping a buffered flit trips the occupancy check at the very
        next cycle boundary."""
        monitor = ConservationMonitor(strict=True, deep_every=1)
        net = monitored_net(monitor, rate=0.25)
        router, ip, vc = next(occupied_buffers(net))
        vc.buffer.popleft()  # corrupt: flit vanishes without an event
        with pytest.raises(InvariantViolation) as exc:
            net.step()
        err = exc.value
        assert err.rule == "buffer_occupancy"
        assert err.monitor == "conservation"
        assert (err.router, err.port) == (router.router_id, ip.port_id)
        assert err.cycle == net.cycle  # the boundary right after corruption

    def test_duplicated_flit_caught(self):
        monitor = ConservationMonitor(strict=True, deep_every=1)
        net = monitored_net(monitor, rate=0.25)
        _, _, vc = next(occupied_buffers(net))
        vc.buffer.append(vc.buffer[0])  # corrupt: flit duplicated
        with pytest.raises(InvariantViolation) as exc:
            net.step()
        assert exc.value.rule == "buffer_occupancy"

    def test_nonstrict_records_instead_of_raising(self):
        monitor = ConservationMonitor(strict=False, deep_every=1)
        net = monitored_net(monitor, rate=0.25)
        _, _, vc = next(occupied_buffers(net))
        vc.buffer.popleft()
        # Non-strict: drive the boundary check directly (stepping the
        # network would execute router phases on the corrupted buffer).
        monitor.on_cycle_start(net.cycle, net)
        rules = {v.rule for v in monitor.violations}
        assert "buffer_occupancy" in rules
