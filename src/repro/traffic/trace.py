"""Trace capture and replay (the paper's trace-driven methodology).

A trace is a time-ordered list of injections ``(cycle, src, dst, size,
msg_type)`` extracted from a CMP run. ``TraceReplayTraffic`` feeds a trace
into any network configuration; combined with NIC-level MSHR throttling
(``NetworkConfig(mshrs=4)``) this reproduces the paper's "traces on a
self-throttling CMP network with 4 MSHRs per core" setup. A replay is
one pass over the trace. On disk a trace lives only as a sealed entry of
the per-user trace cache (``harness/traces.py``), so extraction and
evaluation can still be separate processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..network.flit import Packet


@dataclass(frozen=True)
class TraceRecord:
    cycle: int
    src: int
    dst: int
    size: int
    msg_type: str

    def __post_init__(self):
        if self.cycle < 0 or self.size < 1 or self.src == self.dst:
            raise ValueError(f"malformed trace record {self}")


class Trace:
    """An injection trace plus the terminal count it was captured on."""

    def __init__(self, num_terminals: int, benchmark: str = "",
                 records: list[TraceRecord] | None = None):
        self.num_terminals = num_terminals
        self.benchmark = benchmark
        self.records: list[TraceRecord] = records if records is not None \
            else []

    def __len__(self) -> int:
        return len(self.records)

    @property
    def duration(self) -> int:
        return self.records[-1].cycle + 1 if self.records else 0

    def flits(self) -> int:
        return sum(r.size for r in self.records)

    def offered_load(self) -> float:
        """Average offered load in flits/terminal/cycle."""
        if not self.records:
            return 0.0
        return self.flits() / (self.duration * self.num_terminals)

    def sorted(self) -> "Trace":
        return Trace(self.num_terminals, self.benchmark,
                     sorted(self.records, key=lambda r: r.cycle))


class TraceReplayTraffic:
    """Replays a trace into a network at the recorded injection times.

    The recorded cycle is an *earliest* injection time: if the network under
    test is slower, packets accumulate in the NIC source queues and the
    NIC-level MSHR limit throttles injection, like the original cores would.
    """

    def __init__(self, trace: Trace):
        self.trace = trace.sorted()
        self._idx = 0

    @property
    def exhausted(self) -> bool:
        """Every record has been offered to the network."""
        return self._idx >= len(self.trace.records)

    @property
    def horizon(self) -> int:
        """The cycles a ``run`` from cycle 0 ticks this source until it is
        spent: one past the last record's cycle (the tick that injects the
        last record exhausts the replay)."""
        records = self.trace.records
        return records[-1].cycle + 1 if records else 1

    def next_injection_cycle(self, cycle: int) -> int | None:
        """Next cycle at which ``tick`` may inject (fast-forward protocol).

        Returns ``None`` once the trace is exhausted. Always at least
        ``cycle + 1``: callers invoke this after ticking cycle ``cycle``,
        when every record due so far has already been injected.
        """
        if self.exhausted:
            return None
        return max(cycle + 1, self.trace.records[self._idx].cycle)

    def tick(self, network, cycle: int) -> None:
        records = self.trace.records
        while self._idx < len(records):
            record = records[self._idx]
            if record.cycle > cycle:
                break
            network.inject(Packet(record.src, record.dst, record.size,
                                  cycle, msg_type=record.msg_type))
            self._idx += 1
