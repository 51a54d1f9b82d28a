"""Unit tests for the statistics collector."""

import math

from repro.core.pseudo_circuit import Termination
from repro.metrics.stats import NetworkStats
from repro.network.flit import Packet


def ejected_packet(create=0, inject=2, eject=20, size=1, hops=3):
    p = Packet(0, 1, size, create)
    p.inject_cycle = inject
    p.eject_cycle = eject
    p.hops = hops
    return p


class TestPacketAccounting:
    def test_latency_averages(self):
        s = NetworkStats()
        s.record_ejection(ejected_packet(eject=20))
        s.record_ejection(ejected_packet(eject=30))
        assert s.avg_latency == 25.0
        assert s.avg_network_latency == 23.0
        assert s.avg_hops == 3.0

    def test_warmup_excludes_early_packets(self):
        s = NetworkStats(warmup_cycles=25)
        s.record_ejection(ejected_packet(eject=20))   # during warmup
        s.record_ejection(ejected_packet(eject=30))
        assert s.measured_packets == 1
        assert s.avg_latency == 30.0
        assert s.ejected_packets == 2  # still counted for conservation

    def test_injection_counts_flits(self):
        s = NetworkStats()
        s.record_injection(Packet(0, 1, 5, 0))
        assert s.injected_packets == 1
        assert s.injected_flits == 5

    def test_empty_stats_are_nan(self):
        s = NetworkStats()
        assert math.isnan(s.avg_latency)
        assert math.isnan(s.avg_hops)


class TestDerivedMetrics:
    def test_reusability(self):
        s = NetworkStats()
        s.flit_hops = 100
        s.sa_bypass_flits = 40
        s.buf_bypass_flits = 15
        assert s.reusability == 0.40
        assert s.buffer_bypass_rate == 0.15

    def test_locality_fractions(self):
        s = NetworkStats()
        s.e2e_packets, s.e2e_repeats = 50, 11
        s.xbar_flits, s.xbar_repeats = 200, 62
        assert s.e2e_locality == 0.22
        assert s.xbar_locality == 0.31

    def test_zero_division_guards(self):
        s = NetworkStats()
        assert s.reusability == 0.0
        assert s.e2e_locality == 0.0
        assert s.xbar_locality == 0.0

    def test_termination_counter(self):
        # The cores count a termination as one increment under its reason.
        s = NetworkStats()
        assert s.pc_terminations[Termination.NO_CREDIT] == 0
        s.pc_terminations[Termination.NO_CREDIT] += 2
        s.pc_terminations[Termination.ROUTE_MISMATCH] += 1
        assert s.fingerprint()["pc_terminations"] == {
            Termination.NO_CREDIT: 2, Termination.ROUTE_MISMATCH: 1}

    def test_percentile(self):
        s = NetworkStats()
        for lat in (10, 20, 30, 40, 50):
            s.record_ejection(ejected_packet(eject=lat))
        assert s.latency_percentile(0) == 10
        assert s.latency_percentile(50) == 30
        assert s.latency_percentile(100) == 50

    def test_percentile_empty_histogram(self):
        assert math.isnan(NetworkStats().latency_percentile(50))

    def test_percentile_single_sample(self):
        s = NetworkStats()
        s.record_ejection(ejected_packet(eject=42))
        for pct in (0, 25, 50, 99.9, 100):
            assert s.latency_percentile(pct) == 42

    def test_percentile_clamps_out_of_range(self):
        s = NetworkStats()
        for lat in (10, 20, 30):
            s.record_ejection(ejected_packet(eject=lat))
        assert s.latency_percentile(-5) == 10
        assert s.latency_percentile(250) == 30

    def test_percentile_matches_sample_list_semantics(self):
        # The histogram walk must reproduce the pre-histogram
        # implementation: sorted(samples)[round(pct/100 * (n-1))], with
        # duplicated latencies collapsing into one histogram bucket.
        latencies = [10, 10, 10, 20, 30, 30, 40, 55, 55, 70, 90]
        s = NetworkStats()
        for lat in latencies:
            s.record_ejection(ejected_packet(eject=lat))
        ordered = sorted(latencies)
        n = len(ordered)
        for pct in (0, 10, 25, 33.3, 50, 66.7, 75, 90, 95, 100):
            expected = ordered[min(n - 1, max(0, round(pct / 100 * (n - 1))))]
            assert s.latency_percentile(pct) == expected, pct

    def test_summary_keys(self):
        summary = NetworkStats().summary()
        for key in ("avg_latency", "reusability", "e2e_locality",
                    "xbar_locality", "buffer_writes"):
            assert key in summary
