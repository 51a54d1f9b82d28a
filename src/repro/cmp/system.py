"""The CMP: cores + L2 banks wired to the on-chip network.

Default configuration mirrors the paper (Fig. 7): a 4x4 concentrated mesh
where each router connects 2 cores and 2 L2 banks (terminal local indices
0-1 are cores, 2-3 are banks). On concentration-1 topologies (used for the
Fig. 13 topology study) cores and banks are placed in a checkerboard.

``CmpSystem.run`` advances cores, banks and the network in lockstep; with
``record_trace=True`` every injected message is also recorded so the run
doubles as the paper's trace-extraction step. The default network runs
on the compiled core whenever that core builds in the process (the
``auto`` rule: else on the scalar core, the refusal in ``summary()``);
either core hands each delivery to its endpoint between the cycle's
ejections and injections (``attach_delivery``), so both extract the same
trace (``tests/cmp/test_extraction_cores.py``).
"""

from __future__ import annotations

import random

from ..network.backend import REFUSALS, backend_of
from ..network.config import NetworkConfig
from ..network.flit import Packet
from ..network.simulator import Network
from ..topology.base import Topology
from ..topology.mesh import ConcentratedMesh
from ..traffic.benchmarks import BenchmarkProfile, get_profile
from ..traffic.trace import Trace, TraceRecord
from .address_stream import AddressStream
from .config import CmpConfig
from .endpoints import Core, L2Bank
from .messages import message_flits


class CmpSystem:
    """Closed-loop CMP driving an on-chip network with coherence traffic."""

    def __init__(self, benchmark: str | BenchmarkProfile,
                 network: Network | None = None,
                 cmp_config: CmpConfig | None = None, seed: int = 1):
        self.profile = (benchmark if isinstance(benchmark, BenchmarkProfile)
                        else get_profile(benchmark))
        self.config = cmp_config if cmp_config is not None else CmpConfig()
        #: Why the compiled core did not build the default network, or
        #: ``None`` (it did, or the caller gave the network).
        self.refused = None
        if network is None:
            network, self.refused = _paper_network(seed)
        self.network = network
        self._check_capacity()
        self.rng = random.Random(seed)
        self._map_terminals()
        self.cores = [
            Core(i, self.core_terminals[i], self.config,
                 AddressStream(self.profile, i, self.config.num_l2_banks,
                               seed, self.config.interleave_shift),
                 random.Random((seed << 16) ^ i))
            for i in range(self.config.num_cores)]
        self.banks = [
            L2Bank(j, self.bank_terminals[j], self.config,
                   self.profile.l2_miss_rate,
                   random.Random((seed << 20) ^ j))
            for j in range(self.config.num_l2_banks)]
        self._endpoint_by_terminal = {}
        for core in self.cores:
            self._endpoint_by_terminal[core.terminal] = core
        for bank in self.banks:
            self._endpoint_by_terminal[bank.terminal] = bank
        for terminal, endpoint in self._endpoint_by_terminal.items():
            self.network.attach_delivery(terminal,
                                         self._make_handler(endpoint))
        self.trace: Trace | None = None
        self._record_from = 0
        self.messages_sent = 0

    def _check_capacity(self) -> None:
        needed = self.config.num_cores + self.config.num_l2_banks
        have = self.network.topology.num_terminals
        if have < needed:
            raise ValueError(
                f"topology has {have} terminals but the CMP needs {needed}")

    def _map_terminals(self) -> None:
        """Assign cores and banks to terminals."""
        topo: Topology = self.network.topology
        cores, banks = [], []
        if topo.concentration >= 2:
            # Paper layout: the first half of each router's terminals are
            # cores, the second half L2 banks.
            half = topo.concentration // 2
            for t in range(topo.num_terminals):
                if t % topo.concentration < half:
                    cores.append(t)
                else:
                    banks.append(t)
        else:
            # Checkerboard on concentration-1 grids.
            for t in range(topo.num_terminals):
                x, y = topo.coords(topo.terminal_router(t))
                (cores if (x + y) % 2 == 0 else banks).append(t)
        if (len(cores) < self.config.num_cores
                or len(banks) < self.config.num_l2_banks):
            raise ValueError(
                f"placement found {len(cores)} core / {len(banks)} bank "
                f"slots; need {self.config.num_cores}/"
                f"{self.config.num_l2_banks}")
        self.core_terminals = cores[:self.config.num_cores]
        self.bank_terminals = banks[:self.config.num_l2_banks]

    def _make_handler(self, endpoint):
        def handler(packet: Packet, cycle: int) -> None:
            endpoint.on_message(self, packet, cycle)
        return handler

    # -- messaging ------------------------------------------------------------

    def bank_terminal_for(self, block: int) -> int:
        """Home bank terminal of a block (address-interleaved S-NUCA)."""
        bank = ((block >> self.config.interleave_shift)
                % self.config.num_l2_banks)
        return self.bank_terminals[bank]

    def send(self, src: int, dst: int, msg_type: str, block: int,
             cycle: int, payload=None) -> None:
        size = message_flits(msg_type, self.config)
        packet = Packet(src, dst, size, cycle, msg_type=msg_type,
                        payload=payload if payload is not None else block)
        self.network.inject(packet)
        self.messages_sent += 1
        if self.trace is not None and cycle >= self._record_from:
            self.trace.records.append(
                TraceRecord(cycle - self._record_from, src, dst, size,
                            msg_type))

    # -- simulation -----------------------------------------------------------

    def run(self, cycles: int, record_trace: bool = False,
            warmup: int = 0) -> "CmpSystem":
        """Advance the CMP by ``cycles`` cycles.

        ``warmup`` cycles at the start run the system without recording
        (caches fill, queues reach steady state).
        """
        if record_trace and self.trace is None:
            self.trace = Trace(self.network.topology.num_terminals,
                               benchmark=self.profile.name)
        self._record_from = self.network.cycle + warmup
        self.network.stats.warmup_cycles = self._record_from
        self.network.run(cycles, self)
        return self

    def tick(self, network, cycle: int) -> None:
        """The traffic-source step ``network.run`` takes once per cycle:
        every core, then every bank, acts on ``cycle``; what they send
        goes through ``send``."""
        for core in self.cores:
            core.tick(self, cycle)
        for bank in self.banks:
            bank.tick(self, cycle)

    # -- reporting ------------------------------------------------------------

    def l1_miss_rate(self) -> float:
        hits = sum(c.l1.hits for c in self.cores)
        misses = sum(c.l1.misses for c in self.cores)
        total = hits + misses
        return misses / total if total else 0.0

    def summary(self) -> dict:
        """The run's figures and the core that ran it (``backend``; with
        ``refused``, why the compiled core did not)."""
        summary = {
            "benchmark": self.profile.name,
            "messages": self.messages_sent,
            "l1_miss_rate": self.l1_miss_rate(),
            "mshr_stalls": sum(c.mshrs.stalls for c in self.cores),
            "invals": sum(b.invals_sent for b in self.banks),
            "l2_misses": sum(b.l2_misses for b in self.banks),
            "avg_latency": self.network.stats.avg_latency,
            "backend": backend_of(self.network),
        }
        if self.refused is not None:
            summary["refused"] = self.refused
        return summary


def _paper_network(seed: int):
    """The paper's CMP network (cmesh 4x4x4, O1TURN, dynamic VA) by the
    ``auto`` rule: on the compiled core if it builds here, else on the
    scalar core. Returns it and the refusal's message (``None`` if it
    built; ``network.backend.REFUSALS``)."""
    args = ConcentratedMesh(4, 4, 4), NetworkConfig()
    kwargs = dict(routing="o1turn", vc_policy="dynamic", seed=seed)
    try:
        from ..network.vectorized import VectorNetwork
        return VectorNetwork(*args, **kwargs), None
    except REFUSALS as refusal:
        return Network(*args, **kwargs), str(refusal)
