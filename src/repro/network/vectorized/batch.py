"""Batched multi-run execution: S independent simulations as one chip.

``BatchNetwork`` replicates the structure-of-arrays layout of one
topology S times (``layout.build_layout(..., lanes=S)``): lane ``s``
owns its own contiguous block of every id space, so the occupancy-driven
pipeline inherited from ``VectorNetwork`` steps all lanes in a single
pass of array ops. The per-cycle numpy dispatch overhead that dominates
low-load runs — ~20 fixed-cost array calls per pipeline stage whatever
the occupancy — is paid once per cycle for the whole batch instead of
once per run, which is what makes a sweep of many small low-load points
cheap (``network.batched.lane_speedup.mesh8_low16`` in the ``perf/``
ledger).

Bit-identity per lane: lanes never share an index, so no array op
couples them, and each lane's packets keep lane-local src/dst ids, so
routing, static VC designation and the per-port locality registers see
exactly the solo values. The batch steps a shared global clock; a lane
stepping through cycles its solo run would have fast-forwarded over
changes nothing, because fast-forwarding is stats-preserving (locked in
by the solo parity suite) and an idle lane's routers never enter the
work set. Each lane's ``lane_stats`` is therefore fingerprint-identical
to the same point run solo (tests/network/test_batched_parity.py).

Active-lane compaction is structural rather than masked: finished or
idle lanes have no buffered flits, no queued or in-flight NIC work and
no bucketed events, so they drop out of the occupancy scans
(``_r_buffered``, ``_snd_cnt``, the cycle-keyed buckets) and cost
nothing; ``run_batch`` additionally stops ticking a lane's traffic
source once its injection window closes and fast-forwards the global
clock to the earliest next injection over still-active lanes only.
"""

from __future__ import annotations

import math
from collections import Counter

from ...metrics.stats import NetworkStats
from ...topology.base import Topology
from ..config import NetworkConfig
from .core import VectorNetwork


class _LaneSink:
    """Per-lane injection adapter handed to each lane's traffic source."""

    __slots__ = ("_net", "_lane")

    def __init__(self, net: "BatchNetwork", lane: int):
        self._net = net
        self._lane = lane

    def inject(self, packet) -> None:
        self._net.inject(packet, self._lane)


class BatchNetwork(VectorNetwork):
    """S independent simulations of one topology, stepped as one chip.

    ``seeds`` gives one per-lane seed; lane ``s`` reproduces the solo
    ``VectorNetwork(..., seed=seeds[s])`` bit-for-bit. Traffic sources
    (one per lane, lane-local terminal ids) are driven by
    ``run_batch``; per-lane results come out of ``lane_stats``.
    """

    #: NetworkStats integer slots accumulated per lane.
    _COUNTERS = (
        "injected_packets", "ejected_packets",
        "injected_flits", "ejected_flits",
        "measured_packets", "total_latency", "total_network_latency",
        "total_hops", "flit_hops", "buffer_writes", "buffer_reads",
        "sa_arbitrations", "va_allocations",
        "sa_bypass_flits", "buf_bypass_flits",
        "pc_established", "pc_restored",
        "e2e_packets", "e2e_repeats", "xbar_flits", "xbar_repeats",
    )

    def __init__(self, topology: Topology, config: NetworkConfig,
                 routing="xy", vc_policy="dynamic", seeds=(1,),
                 probe=None):
        seeds = tuple(seeds)
        if not seeds:
            raise ValueError("BatchNetwork needs at least one lane seed")
        super().__init__(topology, config, routing=routing,
                         vc_policy=vc_policy, seed=seeds[0], probe=probe,
                         lanes=len(seeds), lane_seeds=seeds)
        np = self._np
        S = len(seeds)
        self.lanes = S
        self.lane_seeds = seeds
        # Solo (per-lane) extents: lane of an index = index // extent.
        self._L_T = self._T_local
        self._L_NIP = self._NIP // S
        self._L_NIVC = self._NIVC // S
        self._L_NOP = self._NOP // S
        self.lane_warmup = np.zeros(S, dtype=np.int64)
        self._ctr = {name: np.zeros(S, dtype=np.int64)
                     for name in self._COUNTERS}
        self._hist: list[dict] = [{} for _ in range(S)]
        self._terms: list[Counter] = [Counter() for _ in range(S)]

    # -- driving --------------------------------------------------------------

    def run(self, cycles, traffic=None):
        raise TypeError(
            "BatchNetwork is driven per lane: use run_batch(traffics, "
            "cycles, warmups)")

    def run_batch(self, traffics, cycles, warmups=None) -> None:
        """Tick every lane's traffic for its own cycle budget.

        ``traffics``/``cycles``/``warmups`` give one entry per lane. A
        lane stops being ticked once its budget is spent (matching the
        solo run window exactly); the global clock fast-forwards only
        over cycles where no still-active lane has a pending injection
        and no lane has in-flight work. Call ``drain`` afterwards.
        """
        S = self.lanes
        if len(traffics) != S or len(cycles) != S:
            raise ValueError(
                f"need one traffic source and cycle count per lane "
                f"({S} lanes)")
        if warmups is not None:
            if len(warmups) != S:
                raise ValueError(f"need one warmup per lane ({S} lanes)")
            for lane, w in enumerate(warmups):
                self.lane_warmup[lane] = int(w)
        ends = [self.cycle + int(n) for n in cycles]
        end_all = max(ends)
        sinks = [_LaneSink(self, lane) for lane in range(S)]
        nexts = [getattr(tr, "next_injection_cycle", None)
                 for tr in traffics]
        while self.cycle < end_all:
            c = self.cycle
            skippable = True
            for lane in range(S):
                if c < ends[lane]:
                    traffics[lane].tick(sinks[lane], c)
                    if nexts[lane] is None:
                        skippable = False
            self.step()
            # Nothing can be skipped while a flit or packet is anywhere
            # on the chip (``_try_fast_forward`` would return at once):
            # don't ask every lane for its next injection to find out.
            if (not skippable or self._buffered or self._num_queued
                    or self._sending_count):
                continue
            c = self.cycle
            nxt = math.inf
            for lane in range(S):
                if c < ends[lane]:
                    ni = nexts[lane](c)
                    if ni is not None and ni < nxt:
                        nxt = ni
            self._try_fast_forward(
                end_all, None if nxt is math.inf else int(nxt))

    # -- queries --------------------------------------------------------------

    def in_flight_packets(self) -> int:
        ctr = self._ctr
        return self._num_queued + int(
            (ctr["injected_packets"] - ctr["ejected_packets"]).sum())

    def quiescent(self) -> bool:
        if self._num_queued or self._sending_count or self._ej_pending:
            return False
        ctr = self._ctr
        # Per-lane equality follows from the sums: ejections never
        # exceed injections in any lane.
        return int(ctr["injected_packets"].sum()) == int(
            ctr["ejected_packets"].sum())

    def lane_stats(self, lane: int) -> NetworkStats:
        """Extract one lane's counters as a solo-identical NetworkStats."""
        stats = NetworkStats(warmup_cycles=int(self.lane_warmup[lane]))
        ctr = self._ctr
        for name in self._COUNTERS:
            setattr(stats, name, int(ctr[name][lane]))
        stats.latency_histogram = dict(self._hist[lane])
        stats.pc_terminations = Counter(self._terms[lane])
        return stats

    # -- per-lane stats attribution -------------------------------------------

    def _bins(self, idx, extent):
        np = self._np
        return np.bincount(idx // extent, minlength=self.lanes)

    def _wbins(self, idx, extent, weights):
        np = self._np
        # float64 sums of int weights: exact far beyond any counter here.
        return np.bincount(idx // extent, weights=weights,
                           minlength=self.lanes).astype(np.int64)

    def _count_injection(self, t, size):
        lane = t // self._L_T
        self._ctr["injected_packets"][lane] += 1
        self._ctr["injected_flits"][lane] += size

    def _count_ejections(self, c, tpk, sizes):
        np = self._np
        ctr = self._ctr
        ln = self.p_src[tpk] // self._L_T
        ctr["ejected_packets"] += np.bincount(ln, minlength=self.lanes)
        ctr["ejected_flits"] += self._wbins(self.p_src[tpk], self._L_T,
                                            sizes)
        meas = c >= self.lane_warmup[ln]
        if not meas.any():
            return
        midx = (meas).nonzero()[0]
        mpk = tpk[midx]
        ml = ln[midx]
        lats = c - self.p_create[mpk]
        wb = np.bincount
        ctr["measured_packets"] += wb(ml, minlength=self.lanes)
        ctr["total_latency"] += wb(
            ml, weights=lats, minlength=self.lanes).astype(np.int64)
        ctr["total_network_latency"] += wb(
            ml, weights=c - self.p_inject[mpk],
            minlength=self.lanes).astype(np.int64)
        ctr["total_hops"] += wb(
            ml, weights=self.p_hops[mpk],
            minlength=self.lanes).astype(np.int64)
        for lane, lat in zip(ml.tolist(), lats.tolist()):
            hist = self._hist[lane]
            hist[lat] = hist.get(lat, 0) + 1

    def _count_va(self, wivc):
        self._ctr["va_allocations"] += self._bins(wivc, self._L_NIVC)

    def _count_traversals(self, via, popped, ports, hports, e2e_rep,
                          xbar_rep):
        ctr = self._ctr
        cnt = self._bins(ports, self._L_NIP)
        if via == "sa":
            ctr["sa_arbitrations"] += cnt
        else:
            ctr["sa_bypass_flits"] += cnt
            if via == "buf":
                ctr["buf_bypass_flits"] += cnt
        ctr["flit_hops"] += cnt
        ctr["xbar_flits"] += cnt
        if popped:
            ctr["buffer_reads"] += cnt
        ctr["xbar_repeats"] += self._wbins(ports, self._L_NIP, xbar_rep)
        if hports is not None:
            ctr["e2e_packets"] += self._bins(hports, self._L_NIP)
            ctr["e2e_repeats"] += self._wbins(hports, self._L_NIP,
                                              e2e_rep)

    def _count_terminations(self, pps, reason):
        for lane, n in enumerate(
                self._bins(pps, self._L_NIP).tolist()):
            if n:
                self._terms[lane][reason] += n

    def _count_established(self, g_port, refreshed):
        ctr = self._ctr
        ctr["pc_established"] += self._bins(g_port, self._L_NIP)
        ctr["pc_established"] -= self._wbins(g_port, self._L_NIP,
                                             refreshed)

    def _count_restored(self, uo):
        self._ctr["pc_restored"] += self._bins(uo, self._L_NOP)

    def _count_buffer_writes(self, aivc):
        self._ctr["buffer_writes"] += self._bins(aivc, self._L_NIVC)
