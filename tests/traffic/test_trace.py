"""Unit tests for traces and their one-pass replay."""

import pytest

from repro.traffic.trace import Trace, TraceRecord, TraceReplayTraffic


class FakeNetwork:
    def __init__(self):
        self.packets = []

    def inject(self, packet):
        self.packets.append(packet)


def small_trace():
    return Trace(16, benchmark="demo", records=[
        TraceRecord(0, 0, 5, 1, "read_req"),
        TraceRecord(2, 5, 0, 5, "read_resp"),
        TraceRecord(2, 1, 9, 1, "write_req"),
        TraceRecord(7, 9, 1, 1, "write_ack"),
    ])


class TestRecords:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(-1, 0, 1, 1, "x")
        with pytest.raises(ValueError):
            TraceRecord(0, 3, 3, 1, "x")
        with pytest.raises(ValueError):
            TraceRecord(0, 0, 1, 0, "x")


class TestTrace:
    def test_metrics(self):
        trace = small_trace()
        assert len(trace) == 4
        assert trace.duration == 8
        assert trace.flits() == 8
        assert trace.offered_load() == pytest.approx(8 / (8 * 16))

    def test_sorted(self):
        trace = Trace(4, records=[TraceRecord(5, 0, 1, 1, "a"),
                                  TraceRecord(1, 1, 2, 1, "b")])
        assert [r.cycle for r in trace.sorted().records] == [1, 5]


class TestReplay:
    def test_injects_at_recorded_cycles(self):
        replay = TraceReplayTraffic(small_trace())
        net = FakeNetwork()
        replay.tick(net, 0)
        assert len(net.packets) == 1
        replay.tick(net, 1)
        assert len(net.packets) == 1
        replay.tick(net, 2)
        assert len(net.packets) == 3
        replay.tick(net, 7)
        assert len(net.packets) == 4
        assert replay.exhausted

    def test_catches_up_after_gap(self):
        replay = TraceReplayTraffic(small_trace())
        net = FakeNetwork()
        replay.tick(net, 100)  # network was busy; all records now due
        assert len(net.packets) == 4

    def test_one_pass_ends_on_the_last_record(self):
        """``exhausted`` turns true on the tick that offers the last
        record; from then on the replay offers nothing and asks for no
        cycle, and a run of ``horizon`` cycles ticks exactly that far."""
        replay = TraceReplayTraffic(small_trace())
        assert replay.horizon == 8
        net = FakeNetwork()
        for cycle in range(8):
            assert not replay.exhausted
            assert replay.next_injection_cycle(cycle - 1) is not None
            replay.tick(net, cycle)
        assert replay.exhausted and len(net.packets) == 4
        for cycle in range(8, 40):
            assert replay.next_injection_cycle(cycle) is None
            replay.tick(net, cycle)
        assert len(net.packets) == 4

    def test_next_injection_cycle_names_the_next_record(self):
        replay = TraceReplayTraffic(small_trace())
        replay.tick(FakeNetwork(), 0)
        assert replay.next_injection_cycle(0) == 2
        assert replay.next_injection_cycle(5) == 6  # never behind the clock

    def test_an_empty_trace_is_spent_from_the_start(self):
        replay = TraceReplayTraffic(Trace(16))
        assert replay.horizon == 1
        assert replay.exhausted
        assert replay.next_injection_cycle(0) is None

    def test_packet_fields_from_records(self):
        replay = TraceReplayTraffic(small_trace())
        net = FakeNetwork()
        replay.tick(net, 0)
        p = net.packets[0]
        assert (p.src, p.dst, p.size, p.msg_type) == (0, 5, 1, "read_req")
