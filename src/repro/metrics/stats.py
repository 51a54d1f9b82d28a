"""Statistics collected by the network simulator.

One ``NetworkStats`` instance is shared by every router, link and NIC of a
simulation. Counters are plain integer attributes on a ``__slots__`` layout
(hot path: no per-instance dict); derived metrics — average latency,
pseudo-circuit reusability, temporal locality, energy — are computed on
demand. Per-packet latencies are kept as an exact histogram (latency ->
count) rather than an unbounded sample list, which bounds memory at long
simulations while reproducing the same averages and percentiles.
"""

from __future__ import annotations

from collections import Counter

from ..network.flit import Packet


class NetworkStats:
    """Event counters plus an exact per-packet latency histogram."""

    __slots__ = (
        "warmup_cycles",
        # Packet accounting.
        "injected_packets", "ejected_packets",
        "injected_flits", "ejected_flits",
        "measured_packets", "total_latency", "total_network_latency",
        "total_hops", "latency_histogram",
        # Per-flit-hop events (energy model inputs).
        "flit_hops", "buffer_writes", "buffer_reads",
        "sa_arbitrations", "va_allocations",
        # Pseudo-circuit events.
        "sa_bypass_flits", "buf_bypass_flits",
        "pc_established", "pc_restored", "pc_terminations",
        # Temporal locality (Fig. 1).
        "e2e_packets", "e2e_repeats", "xbar_flits", "xbar_repeats",
    )

    def __init__(self, warmup_cycles: int = 0):
        #: Packets ejected before this cycle are excluded from latency stats.
        self.warmup_cycles = warmup_cycles
        self.injected_packets = 0
        self.ejected_packets = 0
        self.injected_flits = 0
        self.ejected_flits = 0
        self.measured_packets = 0
        self.total_latency = 0
        self.total_network_latency = 0
        self.total_hops = 0
        #: Exact latency distribution: latency in cycles -> packet count.
        self.latency_histogram: dict[int, int] = {}
        self.flit_hops = 0          # crossbar traversals
        self.buffer_writes = 0
        self.buffer_reads = 0
        self.sa_arbitrations = 0    # switch-arbiter request-grant events
        self.va_allocations = 0
        self.sa_bypass_flits = 0    # flits that skipped SA via a circuit
        self.buf_bypass_flits = 0   # subset that also skipped the buffer
        self.pc_established = 0
        self.pc_restored = 0        # speculative restorations
        self.pc_terminations: Counter = Counter()
        self.e2e_packets = 0
        self.e2e_repeats = 0
        self.xbar_flits = 0
        self.xbar_repeats = 0

    # -- recording ------------------------------------------------------------

    def record_injection(self, packet: Packet) -> None:
        self.injected_packets += 1
        self.injected_flits += packet.size

    def record_ejection(self, packet: Packet) -> None:
        self.ejected_packets += 1
        self.ejected_flits += packet.size
        if packet.eject_cycle >= self.warmup_cycles:
            self.measured_packets += 1
            latency = packet.latency
            self.total_latency += latency
            self.total_network_latency += packet.network_latency
            self.total_hops += packet.hops
            hist = self.latency_histogram
            hist[latency] = hist.get(latency, 0) + 1

    # -- identity -------------------------------------------------------------

    def fingerprint(self) -> dict:
        """Every observable counter as a flat dict (differential testing)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetworkStats):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    # -- derived metrics ------------------------------------------------------

    @property
    def avg_latency(self) -> float:
        """Average packet latency (creation to tail ejection), cycles."""
        if not self.measured_packets:
            return float("nan")
        return self.total_latency / self.measured_packets

    @property
    def avg_network_latency(self) -> float:
        if not self.measured_packets:
            return float("nan")
        return self.total_network_latency / self.measured_packets

    @property
    def avg_hops(self) -> float:
        if not self.measured_packets:
            return float("nan")
        return self.total_hops / self.measured_packets

    @property
    def reusability(self) -> float:
        """Fraction of flit traversals that reused a pseudo-circuit
        (paper's 'pseudo-circuit reusability', Figs. 8(b) and 10)."""
        if not self.flit_hops:
            return 0.0
        return self.sa_bypass_flits / self.flit_hops

    @property
    def buffer_bypass_rate(self) -> float:
        if not self.flit_hops:
            return 0.0
        return self.buf_bypass_flits / self.flit_hops

    @property
    def e2e_locality(self) -> float:
        """End-to-end communication temporal locality (Fig. 1, left bars)."""
        if not self.e2e_packets:
            return 0.0
        return self.e2e_repeats / self.e2e_packets

    @property
    def xbar_locality(self) -> float:
        """Crossbar-connection temporal locality (Fig. 1, right bars)."""
        if not self.xbar_flits:
            return 0.0
        return self.xbar_repeats / self.xbar_flits

    def latency_percentile(self, pct: float) -> float:
        """Percentile over the recorded latency distribution.

        Walks the histogram in latency order, reproducing exactly the value
        ``sorted(samples)[round(pct/100 * (n-1))]`` the pre-histogram
        implementation returned.
        """
        hist = self.latency_histogram
        if not hist:
            return float("nan")
        total = sum(hist.values())
        idx = min(total - 1, max(0, round(pct / 100 * (total - 1))))
        seen = 0
        for latency in sorted(hist):
            seen += hist[latency]
            if idx < seen:
                return float(latency)
        raise AssertionError("histogram counts inconsistent with total")

    def summary(self) -> dict:
        """Flat dict for reports and EXPERIMENTS.md tables."""
        return {
            "injected_packets": self.injected_packets,
            "ejected_packets": self.ejected_packets,
            "avg_latency": self.avg_latency,
            "avg_network_latency": self.avg_network_latency,
            "avg_hops": self.avg_hops,
            "reusability": self.reusability,
            "buffer_bypass_rate": self.buffer_bypass_rate,
            "e2e_locality": self.e2e_locality,
            "xbar_locality": self.xbar_locality,
            "flit_hops": self.flit_hops,
            "buffer_writes": self.buffer_writes,
            "buffer_reads": self.buffer_reads,
            "sa_arbitrations": self.sa_arbitrations,
        }
