"""Traced run, part (b): layer probes.

Each probe times calls into one layer's public functions and returns
samples named ``<layer>.<quantity>[.<cell>]``; ``run`` repeats the
whole set in rounds until the time budget is spent and reports the
median of every name. Network cells run on pre-drawn injection
schedules (the ``_InjectionSchedule`` idiom of ``harness/bench.py``,
re-implemented here): a Bernoulli source never looks at network state,
so its draws are recorded once, outside the timed region, and replayed
into every core, which therefore consume byte-identical injections and
must end with identical stats fingerprints.

Which end-to-end metric each probe should move, and on which workload,
is tabulated in ``README.md``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import statistics
import time
from collections import defaultdict

from repro import (PSEUDO_SB, Network, NetworkConfig, Packet,
                   SyntheticTraffic, make_topology)
from repro.harness import (Result, clear_cache, derive_seed, get_trace,
                           run_experiment, run_experiments)
from repro.instrument import (CompositeProbe, FlitTracer, TimeSeriesProbe,
                              run_manifest)
from repro.network.backend import choose_backend
from repro.network.vectorized import BatchNetwork, VectorNetwork
from repro.routing import compile_routing, make_routing
from repro.store import (ResultStore, SweepJournal, payload_to_result,
                         result_to_payload, store_key)
from repro.telemetry import TelemetryWriter

from refkernel import reference_kernel
from staged import DRAIN_LIMIT, replay_trace
from workloads import SCALES, mesh_point, tiny_points

#: Probe sizes per scale: cycles of a network cell, tiny points of the
#: harness/store probes (100 points leave ten beyond the p90), repeats
#: of the micro-timed calls.
SIZES = {
    "full": {"cell_cycles": 300, "tiny_pairs": 50, "calls": 200},
    "smoke": {"cell_cycles": 30, "tiny_pairs": 5, "calls": 20},
}

#: Network cells: topology arguments, routing, offered load. "mid" is
#: roughly half the saturation load of that topology.
CELLS = {
    "mesh8_low": (("mesh", 8, 8, 1), {}, "xy", 0.02),
    "mesh8_mid": (("mesh", 8, 8, 1), {}, "xy", 0.15),
    "mesh8_sat": (("mesh", 8, 8, 1), {}, "xy", 0.30),
    "mesh4_mid": (("mesh", 4, 4, 1), {}, "xy", 0.15),
    "mesh16_mid": (("mesh", 16, 16, 1), {}, "xy", 0.06),
    "chiplet2_mid": (("chiplet", 4, 4, 1), {"chiplets": 2}, "weighted",
                     0.05),
}
PHASES = ("bw", "va_sa", "st_credit", "pc", "inject")
BATCH_LANES = 16
BATCH_RATES = (0.01, 0.02, 0.03, 0.04)


class Schedule:
    """The pre-drawn injections of one Bernoulli source."""

    def __init__(self, terminals: int, rate: float, cycles: int, seed: int):
        traffic = SyntheticTraffic("uniform", terminals, rate, 5, seed=seed)
        self.entries: list[tuple[int, int, int]] = []
        for cycle in range(cycles):
            self._cycle = cycle
            traffic.tick(self, cycle)

    def inject(self, packet) -> None:
        """Record a draw (the recording pass's network stand-in)."""
        self.entries.append((self._cycle, packet.src, packet.dst))

    def replay(self) -> "Replay":
        """A fresh traffic source replaying the schedule from the top."""
        return Replay(self.entries)


class Replay:
    """Traffic source injecting a recorded schedule as fresh packets."""

    def __init__(self, entries):
        self._entries = entries
        self._pos = 0

    def tick(self, network, cycle: int) -> None:
        """Inject every recorded packet due this cycle."""
        entries, pos = self._entries, self._pos
        while pos < len(entries) and entries[pos][0] == cycle:
            _, src, dst = entries[pos]
            network.inject(Packet(src, dst, 5, cycle))
            pos += 1
        self._pos = pos

    def next_injection_cycle(self, cycle: int) -> int | None:
        """Cycle of the next pending injection (None when drained)."""
        pos = self._pos
        return self._entries[pos][0] if pos < len(self._entries) else None


class NullSink:
    """Swallows injections: times a traffic source on its own."""

    def inject(self, packet) -> None:
        """Drop the packet."""


def timed(fn, *args, **kwargs):
    """``(seconds, value)`` of one call."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - start, value


def per_call_us(fn, items) -> float:
    """Mean microseconds of ``fn(item)`` over ``items``."""
    start = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - start) * 1e6 / len(items)


def overhead_pct(with_s: float, without_s: float) -> float:
    """How much longer ``with_s`` is than ``without_s``, in percent."""
    return 100 * (with_s - without_s) / without_s


class Probes:
    """One traced run's probe state: inputs drawn once, checks tallied."""

    def __init__(self, seed: int, scale: str, tmp: str):
        self.seed = seed
        self.size = SIZES[scale]
        self.trace_size = SCALES[scale]
        self.tmp = tmp
        self.round = 0
        self.attempted = 0   # cross-core fingerprint comparisons made
        self.failed = 0      # ...and how many differed
        self.cycles = self.size["cell_cycles"]
        self.topos = {name: make_topology(*args, **kwargs)
                      for name, (args, kwargs, _, _) in CELLS.items()}
        self.schedules = {
            name: Schedule(self.topos[name].num_terminals, rate,
                           self.cycles, derive_seed(seed, "cell", name))
            for name, (_, _, _, rate) in CELLS.items()}
        self.lane_seeds = [derive_seed(seed, "lane", lane)
                           for lane in range(BATCH_LANES)]
        self.lane_schedules = [
            Schedule(64, BATCH_RATES[lane % len(BATCH_RATES)], self.cycles,
                     self.lane_seeds[lane])
            for lane in range(BATCH_LANES)]
        self.tiny = tiny_points(seed, "probe", self.size["tiny_pairs"])

    def scratch(self, name: str) -> str:
        """A path under the run's temp dir, unique per round."""
        return os.path.join(self.tmp, f"probe-{self.round}-{name}")

    def same(self, a: dict, b: dict) -> None:
        """Tally one cross-core fingerprint comparison."""
        self.attempted += 1
        self.failed += a != b

    # -- host / cmp / topology / routing / construction --------------------

    @staticmethod
    def host() -> dict:
        """The host-speed kernel: what to read the raw timings against."""
        return {"host.ref_kernel_ms": reference_kernel() * 1e3}

    def cmp(self) -> dict:
        """CMP trace extraction, a fresh seed per round (memo bypassed)."""
        cycles = self.trace_size["trace_cycles"]
        seed = derive_seed(self.seed, "cmp", self.round)
        wall, traces = timed(lambda: [
            get_trace(bench, cycles=cycles, warmup=max(200, cycles // 5),
                      seed=seed)
            for bench in self.trace_size["benchmarks"]])
        self.trace = traces[0]
        return {"cmp.trace_extract_s": wall,
                "cmp.trace_packets": sum(len(t) for t in traces)}

    def construction(self) -> dict:
        """Topology, routing-table and network construction."""
        out = {}
        config = NetworkConfig(pseudo=PSEUDO_SB)
        for k in (4, 16):
            wall, topo = timed(make_topology, "mesh", k, k, 1)
            out[f"topology.build_ms.mesh{k}"] = wall * 1e3
            routing = make_routing("xy", topo)
            wall, _ = timed(compile_routing, routing, topo, config.num_vcs)
            out[f"routing.compile_ms.mesh{k}"] = wall * 1e3
        for k in (4, 8):
            topo = self.topos[f"mesh{k}_mid"]
            for core, cls in (("scalar", Network),
                              ("vectorized", VectorNetwork)):
                wall, _ = timed(cls, topo, config, routing="xy",
                                vc_policy="static", seed=1)
                out[f"network.{core}.build_ms.mesh{k}"] = wall * 1e3
        wall, _ = timed(BatchNetwork, self.topos["mesh8_low"], config,
                        routing="xy", vc_policy="static",
                        seeds=self.lane_seeds)
        out["network.batched.build_ms.mesh8x16"] = wall * 1e3
        return out

    def traffic(self) -> dict:
        """The Bernoulli source alone, ticking into a null sink."""
        out = {}
        sink = NullSink()
        for name, rate in (("low", 0.02), ("sat", 0.30)):
            source = SyntheticTraffic("uniform", 64, rate, 5, seed=self.seed)
            wall, _ = timed(lambda: [source.tick(sink, c)
                                     for c in range(self.cycles)])
            out[f"traffic.synthetic.us_per_cycle.{name}"] = (
                wall * 1e6 / self.cycles)
        return out

    # -- the network cores --------------------------------------------------

    def drive(self, net, schedule) -> float:
        """Replay ``schedule`` into ``net`` and drain; wall seconds."""
        net.stats.warmup_cycles = self.cycles // 5
        traffic = schedule.replay()
        start = time.perf_counter()
        net.run(self.cycles, traffic)
        net.drain(max_cycles=DRAIN_LIMIT)
        return time.perf_counter() - start

    def run_cell(self, cls, name: str, profile: bool = False):
        """One cell on one core: ``(wall seconds, finished network)``."""
        _, _, routing, _ = CELLS[name]
        net = cls(self.topos[name], NetworkConfig(pseudo=PSEUDO_SB),
                  routing=routing, vc_policy="static",
                  seed=derive_seed(self.seed, "cell", name))
        if profile:
            net.enable_profile()
        return self.drive(net, self.schedules[name]), net

    @staticmethod
    def core_rates(core: str, cell: str, wall: float, net) -> dict:
        """The two hardware-portable rates of one finished cell."""
        return {
            f"network.{core}.cycles_per_s.{cell}": net.cycle / wall,
            f"network.{core}.ns_per_flit_hop.{cell}":
                wall * 1e9 / net.stats.flit_hops}

    def cells(self) -> dict:
        """Every cell on every core that accepts it; parity asserted."""
        out = {}
        walls = {}
        for cell in CELLS:
            prints = {}
            for core, cls in (("scalar", Network),
                              ("vectorized", VectorNetwork)):
                wall, net = self.run_cell(cls, cell)
                out.update(self.core_rates(core, cell, wall, net))
                walls[core, cell] = wall
                prints[core] = dict(net.stats.fingerprint(),
                                    final_cycle=net.cycle)
            self.same(prints["scalar"], prints["vectorized"])
        out.update(self.selector(walls))
        _, net = self.run_cell(VectorNetwork, "mesh8_sat", profile=True)
        fractions = net.profile()["fractions"]
        out.update({f"network.vectorized.phase_share.{phase}":
                    fractions[phase] for phase in PHASES})
        out.update(self.trace_cell())
        return out

    @staticmethod
    def selector(walls: dict) -> dict:
        """``auto``'s choice against the measured-fastest core."""
        agree, penalty = [], []
        for cell in ("mesh8_low", "mesh8_mid", "mesh8_sat"):
            chosen = choose_backend(terminals=64, rate=CELLS[cell][3],
                                    pseudo=True)
            best = min(("scalar", "vectorized"),
                       key=lambda core: walls[core, cell])
            agree.append(chosen == best)
            penalty.append(overhead_pct(walls[chosen, cell],
                                        walls[best, cell]))
        return {
            "network.backend.auto_agreement_share": statistics.fmean(agree),
            "network.backend.auto_penalty_pct": statistics.fmean(penalty)}

    def trace_cell(self) -> dict:
        """Trace replay with MSHR throttling on the scalar core."""
        net = Network(make_topology("cmesh", 4, 4, 4),
                      NetworkConfig(pseudo=PSEUDO_SB, mshrs=4),
                      routing="xy", vc_policy="dynamic", seed=self.seed)
        wall, _ = timed(replay_trace, net, self.trace)
        return self.core_rates("scalar", "cmesh_trace", wall, net)

    def batched(self) -> dict:
        """Sixteen low-load lanes as one chip against sixteen solo runs."""
        topo = self.topos["mesh8_low"]
        config = NetworkConfig(pseudo=PSEUDO_SB)
        warmup = self.cycles // 5
        net = BatchNetwork(topo, config, routing="xy", vc_policy="static",
                           seeds=self.lane_seeds)
        traffics = [s.replay() for s in self.lane_schedules]
        start = time.perf_counter()
        net.run_batch(traffics, [self.cycles] * BATCH_LANES,
                      [warmup] * BATCH_LANES)
        net.drain(max_cycles=DRAIN_LIMIT)
        batch_wall = time.perf_counter() - start
        solo_wall = 0.0
        hops = 0
        for lane, schedule in enumerate(self.lane_schedules):
            solo = VectorNetwork(topo, config, routing="xy",
                                 vc_policy="static",
                                 seed=self.lane_seeds[lane])
            solo_wall += self.drive(solo, schedule)
            hops += solo.stats.flit_hops
            self.same(solo.stats.fingerprint(),
                      net.lane_stats(lane).fingerprint())
        return {
            "network.batched.ns_per_flit_hop.mesh8_low16":
                batch_wall * 1e9 / hops,
            "network.batched.lane_speedup.mesh8_low16":
                solo_wall / batch_wall}

    # -- harness, store, journal ---------------------------------------------

    def experiment(self) -> dict:
        """What run_experiment adds around build + run + drain."""
        cfg = self.tiny[1]
        calls = range(self.size["calls"])

        def bare():
            net = Network(make_topology("mesh", cfg.kx, cfg.ky, 1),
                          NetworkConfig(pseudo=cfg.scheme), routing="xy",
                          vc_policy="static", seed=cfg.seed)
            net.stats.warmup_cycles = cfg.synth_warmup
            net.run(cfg.synth_cycles, SyntheticTraffic(
                "uniform", 16, cfg.rate, 5, seed=cfg.seed))
            net.drain(max_cycles=DRAIN_LIMIT)
            return net

        net = bare()
        whole, direct = [], []
        for _ in range(10):  # interleaved, so drift hits both alike
            whole.append(timed(run_experiment, cfg, use_cache=False)[0])
            direct.append(timed(bare)[0])
        run_experiment(cfg)  # fold into the memo
        return {
            "metrics.result_extract_us": per_call_us(
                lambda _: Result.from_stats(cfg, net.stats), calls),
            "instrument.manifest_us": per_call_us(
                lambda _: run_manifest(cfg, seed=cfg.seed, cycles=net.cycle,
                                       wall_s=0.01,
                                       extra={"backend": "scalar"}), calls),
            "harness.experiment.overhead_ms": 1e3 * (
                statistics.median(whole) - statistics.median(direct)),
            "harness.experiment.memo_hit_us": per_call_us(
                lambda _: run_experiment(cfg), calls)}

    def sweeps(self) -> dict:
        """The scheduler: pool start-up, per-point overhead, the tiers,
        and telemetry's cost when switched on."""
        out = {}
        points = self.tiny
        n = len(points)
        free = [mesh_point(4, 0.05, 10, PSEUDO_SB,
                           derive_seed(self.seed, "free", i))
                for i in range(8)]
        clear_cache()
        inline, _ = timed(run_experiments, free, max_workers=1)
        clear_cache()
        pooled, _ = timed(run_experiments, free, max_workers=2)
        out["harness.parallel.pool_startup_ms"] = (pooled - inline) * 1e3

        # A cold inline sweep into a store and a journal...
        self.store_dir = self.scratch("store")
        self.journal = self.scratch("journal.jsonl")
        clear_cache()
        cold, results = timed(run_experiments, points, max_workers=1,
                              store=ResultStore(self.store_dir),
                              journal=self.journal)
        self.results = results
        walls = sorted(r.manifest["wall_s"] * 1e3 for r in results)
        out["harness.parallel.serial_overhead_us"] = (
            cold * 1e3 - sum(walls)) * 1e3 / n
        out["harness.parallel.point_wall_ms.p50"] = statistics.median(walls)
        out["harness.parallel.point_wall_ms.p90"] = walls[(9 * n) // 10]
        blobs = [pickle.dumps(r) for r in results]
        out["harness.parallel.result_pickle_us"] = per_call_us(
            pickle.dumps, results)
        out["harness.parallel.result_pickle_bytes"] = statistics.fmean(
            len(b) for b in blobs)

        # ...then the same sweep answered whole by each cheaper tier.
        memo, _ = timed(run_experiments, points, max_workers=1)
        clear_cache()
        store = ResultStore(self.store_dir)
        warm, _ = timed(run_experiments, points, max_workers=1, store=store)
        clear_cache()
        resumed, _ = timed(run_experiments, points, max_workers=1,
                           journal=self.journal, resume=True)
        for tier, wall in (("memo", memo), ("store", warm),
                           ("journal", resumed)):
            out[f"harness.parallel.tier_us.{tier}"] = wall * 1e6 / n
        out["store.hit_share"] = store.stats["hits"] / (
            store.stats["hits"] + store.stats["misses"])

        # ...and simulated again with the telemetry stream on.
        stream = self.scratch("telemetry.jsonl")
        clear_cache()
        observed, _ = timed(
            run_experiments, points, max_workers=1,
            store=ResultStore(self.scratch("store-observed")),
            journal=self.scratch("journal-observed.jsonl"),
            telemetry=stream)
        out["telemetry.on_overhead_pct"] = overhead_pct(observed, cold)
        with open(stream, encoding="utf-8") as fh:
            out["telemetry.records_per_point"] = sum(1 for _ in fh) / n
        with TelemetryWriter(self.scratch("writer.jsonl")) as writer:
            out["telemetry.write_us"] = per_call_us(
                lambda i: writer.write({"ev": "point", "idx": i}),
                range(self.size["calls"]))
        return out

    def store(self) -> dict:
        """Store and journal calls one by one, read side then write side
        (on the entries the ``sweeps`` probe left behind)."""
        results = self.results
        configs = [r.config for r in results]
        store = ResultStore(self.store_dir)
        keys = [store_key(cfg) for cfg in configs]
        absent = [hashlib.sha256(key.encode()).hexdigest() for key in keys]
        payloads = [result_to_payload(r) for r in results]
        sizes = [os.path.getsize(os.path.join(folder, name))
                 for folder, _, names in os.walk(store.objects_dir)
                 for name in names]
        out = {
            "store.key_us": per_call_us(store_key, configs),
            "store.get_hit_us": per_call_us(store.get, keys),
            "store.get_miss_us": per_call_us(store.get, absent),
            "store.from_payload_us": per_call_us(payload_to_result,
                                                 payloads),
            "store.journal_load_us": timed(
                SweepJournal(self.journal).load)[0] * 1e6 / len(keys),
            "store.to_payload_us": per_call_us(result_to_payload, results),
            "store.bytes_per_entry": statistics.fmean(sizes)}
        fresh = ResultStore(self.scratch("store-put"))
        entries = list(zip(keys, payloads))
        out["store.put_us"] = per_call_us(
            lambda kp: fresh.put(kp[0], kp[1]), entries)
        with SweepJournal(self.scratch("journal-append.jsonl")) as journal:
            out["store.journal_append_us"] = per_call_us(
                lambda kp: journal.append(kp[0], kp[1]), entries)
        return out

    # -- monitors and probes: off by default, so guards, not costs -----------

    def observers(self) -> dict:
        """``check=True`` and an attached tracer, against the bare run
        (best of two each: single runs of one point are too noisy)."""
        out = {}
        seed = derive_seed(self.seed, "observers", 0)

        def best(**kwargs):
            runs = [timed(run_experiment, cfg, **kwargs) for _ in range(2)]
            self.attempted += 1
            self.failed += any(result != runs[0][1] for _, result in runs)
            return min(wall for wall, _ in runs), runs[0][1]

        for core in ("scalar", "vectorized"):
            cfg = mesh_point(8, 0.15, self.cycles // 2, PSEUDO_SB, seed,
                             core)
            bare, plain = best(use_cache=False)
            checked, result = best(check=True)
            self.failed += result != plain
            out[f"monitor.check_overhead_pct.{core}"] = overhead_pct(
                checked, bare)
            if core == "scalar":
                probed, result = best(probe=CompositeProbe(
                    FlitTracer(), TimeSeriesProbe()))
                self.failed += result != plain
                out["instrument.probe_overhead_pct.scalar"] = overhead_pct(
                    probed, bare)
        return out


def run(seed: int, seconds: float, scale: str, tmp: str) -> dict:
    """Probe rounds while they fit in ``seconds``; medians of every name."""
    probes = Probes(seed, scale, tmp)
    samples = defaultdict(list)
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        for probe in (probes.host, probes.cmp, probes.construction,
                      probes.traffic, probes.cells, probes.batched,
                      probes.experiment, probes.sweeps, probes.store,
                      probes.observers):
            for name, value in probe().items():
                samples[name].append(value)
        probes.round += 1
        # Another round only if it fits what is left of the budget.
        if 2 * time.perf_counter() - start > deadline:
            break
    return {"metrics": {name: statistics.median(values)
                        for name, values in samples.items()},
            "samples": probes.round, "attempted": probes.attempted,
            "failed": probes.failed}
