"""Trace capture and replay (the paper's trace-driven methodology).

A trace is a time-ordered list of injections ``(cycle, src, dst, size,
msg_type)`` extracted from a CMP run. ``TraceReplayTraffic`` feeds a trace
into any network configuration; combined with NIC-level MSHR throttling
(``NetworkConfig(mshrs=4)``) this reproduces the paper's "traces on a
self-throttling CMP network with 4 MSHRs per core" setup. Traces
serialize to a simple text format so extraction and evaluation can be
separate steps.
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

    # -- serialization --------------------------------------------------------

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# repro-trace v1 benchmark={self.benchmark} "
                     f"terminals={self.num_terminals}\n")
            for r in self.records:
                fh.write(f"{r.cycle} {r.src} {r.dst} {r.size} "
                         f"{r.msg_type}\n")

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header.startswith("# repro-trace v1"):
                raise ValueError(f"{path}: not a repro trace file")
            meta = dict(field.split("=", 1)
                        for field in header.split()[3:])
            trace = cls(int(meta["terminals"]), meta.get("benchmark", ""))
            for line in fh:
                cycle, src, dst, size, msg_type = line.split()
                trace.records.append(TraceRecord(
                    int(cycle), int(src), int(dst), int(size), msg_type))
        return trace


class TraceReplayTraffic:
    """Replays a trace into a network at the recorded injection times.

    The recorded cycle is an *earliest* injection time: if the network under
    test is slower, packets accumulate in the NIC source queues and the
    NIC-level MSHR limit throttles injection, like the original cores would.
    """

    def __init__(self, trace: Trace, repeat: int = 1):
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        self.trace = trace.sorted()
        self.repeat = repeat
        self._idx = 0
        self._round = 0
        self._offset = 0
        self.injected = 0

    @property
    def exhausted(self) -> bool:
        return self._round >= self.repeat

    @property
    def horizon(self) -> int:
        """The cycles a ``run`` from cycle 0 ticks this source until it is
        spent: through the last round's last record, one past its cycle
        (the tick that injects a round's last record ends the round)."""
        records = self.trace.records
        return self.repeat * (records[-1].cycle + 1) if records else 1

    def next_injection_cycle(self, cycle: int) -> int | None:
        """Next cycle at which ``tick`` may inject (fast-forward protocol).

        Returns ``None`` once the trace is exhausted. Always at least
        ``cycle + 1``: callers invoke this after ticking cycle ``cycle``,
        when every record due so far has already been injected.
        """
        if self.exhausted:
            return None
        records = self.trace.records
        if self._idx >= len(records):
            return cycle + 1  # rollover resolves on the next tick
        return max(cycle + 1, records[self._idx].cycle + self._offset)

    def tick(self, network, cycle: int) -> None:
        records = self.trace.records
        while not self.exhausted:
            if self._idx >= len(records):
                self._round += 1
                self._idx = 0
                self._offset = cycle + 1
                continue
            record = records[self._idx]
            when = record.cycle + self._offset
            if when > cycle:
                break
            network.inject(Packet(record.src, record.dst, record.size,
                                  cycle, msg_type=record.msg_type))
            self.injected += 1
            self._idx += 1
