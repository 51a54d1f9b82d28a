"""The five benchmark workloads, built from the repo's public API only.

Every workload is a closed loop: one *pass* is one blocking call (or a
short serial run of them) into the harness, and the next pass starts
when the previous one has returned. ``--seed`` reaches only the
generated inputs — every point's seed is ``derive_seed(seed, workload,
i)``, ``i`` numbering the baseline / Pseudo+S+B *pair* so both schemes
of a pair see the same traffic.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``README.md``; the short version is that each one makes a different
layer do the work, so a change to one layer has a workload that should
move and others that should not.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics

from repro.harness import (ExperimentConfig, clear_cache, derive_seed,
                           figures, get_trace, run_experiment,
                           run_experiments)
from repro.harness.experiment import memo_hit
from repro.network.config import BASELINE, PC_SCHEMES, PSEUDO_SB
from repro.store import ResultStore, result_to_payload

#: Pool width of the pooled workloads: never wider than the machine.
WORKERS = min(2, os.cpu_count() or 1)

#: Workload sizes. ``full`` is sized so that set-up (three times over),
#: the warm-up pass and ``run_seconds`` of timed passes fit the driver's
#: per-run budget on a 2-core box; ``smoke`` shrinks every workload by
#: 10x or more for ``test_smoke.py``.
SCALES = {
    "full": {
        "benchmarks": ("fma3d", "specjbb", "radix"), "trace_cycles": 600,
        "sat": ((8, 0.30, 800), (16, 0.12, 300)),
        "low_pairs": 16, "low_cycles": 1000,
        "tiny_pairs": 128,
    },
    "smoke": {
        "benchmarks": ("radix",), "trace_cycles": 150,
        "sat": ((8, 0.30, 80), (16, 0.12, 30)),
        "low_pairs": 4, "low_cycles": 100,
        "tiny_pairs": 12,
    },
}


def mesh_point(k: int, rate: float, cycles: int, scheme, seed: int,
               backend: str | None = None) -> ExperimentConfig:
    """One uniform-random point on a k x k mesh, XY + static VA."""
    return ExperimentConfig(
        topology="mesh", kx=k, ky=k, concentration=1, routing="xy",
        vc_policy="static", scheme=scheme, pattern="uniform", rate=rate,
        synth_cycles=cycles, synth_warmup=cycles // 5, seed=seed,
        backend=backend)


def tiny_points(seed: int, workload: str, pairs: int) -> list:
    """``pairs`` baseline/Pseudo+S+B pairs of 100-cycle 4x4 points."""
    configs = []
    for i in range(pairs):
        point_seed = derive_seed(seed, workload, i)
        rate = round(0.02 + 0.01 * (i % 8), 2)
        configs += [mesh_point(4, rate, 100, scheme, point_seed)
                    for scheme in (BASELINE, PSEUDO_SB)]
    return configs


def point_digest(result) -> str:
    """SHA-256 over the Result fields that take part in equality."""
    payload = result_to_payload(result)
    del payload["manifest"]  # provenance: excluded from Result equality
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pass_digest(point_digests) -> str:
    """One SHA-256 over a pass's sorted per-point digests."""
    text = "\n".join(sorted(point_digests))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """One workload: its points, one pass over them, and its checks."""

    name = ""
    #: The core every Result manifest of this workload must name.
    backend = "scalar"

    def __init__(self, seed: int, scale: str, tmp: str):
        self.seed = seed
        self.size = SCALES[scale]
        self.tmp = tmp
        #: Points in answer order, (baseline, Pseudo+S+B) adjacent.
        self.configs: list = []
        #: (baseline index, Pseudo+S+B index) into a pass's answers.
        self.pairs: list = []
        #: Points handed to the last ``sweep`` (what ``end_pass`` checks).
        self.swept = 0

    def sweep(self, configs, workers: int) -> list:
        """Answer ``configs`` the way this workload drives the harness."""
        raise NotImplementedError

    def run_pass(self) -> list:
        """One timed pass; returns one Result per answered point."""
        return self.sweep(self.configs, WORKERS)

    def end_pass(self) -> list[str]:
        """Untimed epilogue of a pass: behaviour checks and clean-up.

        Returns the problems found (empty when the pass behaved as the
        workload is designed to).
        """
        return []

    def backend_problems(self, results) -> list[str]:
        """Points that did not run on the core the workload is built for."""
        wrong = {r.manifest["backend"] for r in results if r is not None}
        wrong.discard(self.backend)
        return [f"points ran on {sorted(wrong)}, not {self.backend}"] \
            if wrong else []

    def sample(self) -> list:
        """The fixed sample of points the traced run stages call by call."""
        return self.configs[:64]

    def adjacent_pairs(self) -> list:
        """Pairs for configs laid out baseline, Pseudo+S+B, baseline..."""
        return [(i, i + 1) for i in range(0, len(self.configs), 2)]

    def sim_metrics(self, results) -> dict[str, float]:
        """The modelled design's headline numbers over the scheme pairs.

        Pairs in which either run measured no packet (possible on the
        100-cycle points) carry no latency and are left out.
        """
        ratios, reuse = [], []
        for base_idx, pc_idx in self.pairs:
            base, pc = results[base_idx], results[pc_idx]
            if base.packets and pc.packets:
                ratios.append(pc.avg_latency / base.avg_latency)
                reuse.append(pc.reusability)
        return {"sim_latency_vs_base_pct": 100 * statistics.fmean(ratios),
                "sim_reusability_pct": 100 * statistics.fmean(reuse)}


class Fig8Traces(Workload):
    """A paper figure: trace replay on the scalar core, pooled."""

    name = "fig8_traces"

    def __init__(self, seed, scale, tmp):
        super().__init__(seed, scale, tmp)
        self.fig_seed = derive_seed(seed, self.name, 0)
        self.cycles = self.size["trace_cycles"]
        self.warmup = max(200, self.cycles // 5)
        benches = self.size["benchmarks"]
        # The points fig8 requests, rebuilt from public names so their
        # Results can be read back out of the memo after the call.
        self.configs = (
            [self._point(b, figures.BEST_BASELINE, BASELINE)
             for b in benches]
            + [self._point(b, figures.PSEUDO_CONFIG, scheme)
               for b in benches for scheme in PC_SCHEMES])
        sb = PC_SCHEMES.index(PSEUDO_SB)
        self.pairs = [(i, len(benches) + i * len(PC_SCHEMES) + sb)
                      for i in range(len(benches))]
        for bench in benches:  # set-up: extract the CMP traces
            get_trace(bench, cycles=self.cycles, warmup=self.warmup,
                      seed=self.fig_seed)

    def _point(self, bench, routing_va, scheme):
        routing, va = routing_va
        return ExperimentConfig(
            topology="cmesh", kx=4, ky=4, concentration=4, routing=routing,
            vc_policy=va, scheme=scheme, benchmark=bench,
            trace_cycles=self.cycles, trace_warmup=self.warmup,
            seed=self.fig_seed)

    def sample(self):
        return [self.configs[i] for pair in self.pairs[:2] for i in pair]

    def sweep(self, configs, workers):
        clear_cache()
        return run_experiments(configs, max_workers=workers)

    def run_pass(self):
        clear_cache()
        figures.fig8(benchmarks=self.size["benchmarks"],
                     trace_cycles=self.cycles, seed=self.fig_seed,
                     show=False, max_workers=WORKERS)
        return [memo_hit(cfg) for cfg in self.configs]


class SatPoints(Workload):
    """Solo saturation points: ``auto`` resolves all to vectorized."""

    name = "sat_points"
    backend = "vectorized"

    def __init__(self, seed, scale, tmp):
        super().__init__(seed, scale, tmp)
        for i, (k, rate, cycles) in enumerate(self.size["sat"]):
            point_seed = derive_seed(seed, self.name, i)
            self.configs += [
                mesh_point(k, rate, cycles, scheme, point_seed, "auto")
                for scheme in (BASELINE, PSEUDO_SB)]
        self.pairs = self.adjacent_pairs()

    def sample(self):
        return self.configs[:2]

    def sweep(self, configs, workers):
        return [run_experiment(cfg, use_cache=False) for cfg in configs]


class LowloadSweep(Workload):
    """An inline low-load sweep: ``auto`` groups it into batched lanes."""

    name = "lowload_sweep"
    backend = "batched"

    def __init__(self, seed, scale, tmp):
        super().__init__(seed, scale, tmp)
        pairs = self.size["low_pairs"]
        for i in range(pairs):
            point_seed = derive_seed(seed, self.name, i)
            rate = round(0.01 + 0.07 * i / (pairs - 1), 4)
            self.configs += [
                mesh_point(8, rate, self.size["low_cycles"], scheme,
                           point_seed, "auto")
                for scheme in (BASELINE, PSEUDO_SB)]
        self.pairs = self.adjacent_pairs()

    def sample(self):
        return self.configs[1::2]  # the Pseudo+S+B points: one batched unit

    def sweep(self, configs, workers):
        clear_cache()  # inline whatever ``workers`` says: no pool noise
        return run_experiments(configs, max_workers=1, batch_size=16)


class SmallPointsCold(Workload):
    """Many tiny points into a cold store and journal (the write side)."""

    name = "small_points_cold"

    def __init__(self, seed, scale, tmp):
        super().__init__(seed, scale, tmp)
        self.configs = tiny_points(seed, self.name, self.size["tiny_pairs"])
        self.pairs = self.adjacent_pairs()
        self.dir = os.path.join(tmp, "cold")
        self.store = None

    def sweep(self, configs, workers):
        clear_cache()
        self.swept = len(configs)
        self.store = ResultStore(os.path.join(self.dir, "store"))
        return run_experiments(
            configs, max_workers=workers, store=self.store,
            journal=os.path.join(self.dir, "journal.jsonl"))

    def end_pass(self):
        points = self.swept
        with open(os.path.join(self.dir, "journal.jsonl"),
                  encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        problems = []
        if self.store.stats["puts"] != points:
            problems.append(f"{self.store.stats['puts']} store puts for "
                            f"{points} points")
        if lines != points:
            problems.append(f"{lines} journal lines for {points} points")
        shutil.rmtree(self.dir)  # the next pass starts cold again
        return problems


class ReplayWarm(Workload):
    """The same tiny points answered from a warm store, then a journal."""

    name = "replay_warm"

    def __init__(self, seed, scale, tmp):
        super().__init__(seed, scale, tmp)
        self.configs = tiny_points(seed, self.name, self.size["tiny_pairs"])
        self.pairs = self.adjacent_pairs()
        self.store_dir = os.path.join(tmp, "warm-store")
        self.journal = os.path.join(tmp, "warm-journal.jsonl")
        self.store = None
        # Set-up: simulate every point once into the store and journal.
        run_experiments(self.configs, max_workers=WORKERS,
                        store=ResultStore(self.store_dir),
                        journal=self.journal)
        clear_cache()
        self.journal_bytes = os.path.getsize(self.journal)

    def sweep(self, configs, workers):
        clear_cache()
        self.swept = len(configs)
        self.store = ResultStore(self.store_dir)  # fresh handle, counters
        warm = run_experiments(configs, max_workers=workers,
                               store=self.store)
        clear_cache()
        resumed = run_experiments(configs, max_workers=workers,
                                  journal=self.journal, resume=True)
        return warm + resumed

    def end_pass(self):
        points = self.swept
        stats = self.store.stats
        problems = []
        if (stats["hits"], stats["misses"], stats["puts"]) != (points, 0, 0):
            problems.append(f"warm sweep was not all store hits: {stats}")
        # A resumed sweep journals only the points it had to simulate.
        if os.path.getsize(self.journal) != self.journal_bytes:
            problems.append("resumed sweep simulated points (journal grew)")
        return problems


WORKLOADS = {cls.name: cls for cls in (Fig8Traces, SatPoints, LowloadSweep,
                                       SmallPointsCold, ReplayWarm)}
