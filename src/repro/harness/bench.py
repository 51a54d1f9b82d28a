"""Core-performance benchmark and perf-trajectory tracking.

``run_bench`` times the canonical simulator workloads — an 8x8 mesh under
uniform-random traffic at a low-load and a near-saturation point, for the
baseline router and the full Pseudo+S+B scheme — in both the shipped fast
mode (active-set stepping + compiled routing tables + bitmask allocator)
and the exhaustive reference mode (``active_set=False`` with the dynamic
``route()`` path), verifies that the two modes produced identical
``NetworkStats``, and writes the timings to ``BENCH_core.json``. Re-running
``python -m repro bench`` after a change (and diffing the JSON) is how this
repo tracks simulator performance over time.

Wall-clock numbers are best-of-``repeats`` to suppress scheduler noise.
The aggregate speedups weight the saturation workloads heavier
(``weight`` column) because reproduction wall-clock is dominated by the
high-load end of the latency-throughput sweeps. Walls only compare
against walls measured on the same machine: end-to-end tracking across
commits is ``perf/`` + ``BENCHMARK.json``'s job, not this file's.

``--profile`` wraps one extra repeat of every workload in ``cProfile`` and
prints the top cumulative-time entries, so perf work can cite a profile
instead of guessing.

``--gate`` turns the run into the instrumentation-overhead gate: before
overwriting the report it loads the previous one, then (a) asserts a
default-built network carries no probe, (b) asserts stats stay
bit-identical with a full tracer + time-series stack attached, and (c)
when a previous report at matching scale exists, asserts the fresh
probes-disabled walls are within 2% of it (weighted geomean). See
``repro.instrument.overhead``.

Timing methodology: the injection sequence of a workload is a Bernoulli
draw per (terminal, cycle) that never depends on network state, so the
bench pre-draws it once per workload (``_InjectionSchedule``) and replays
it inside the timed region. The walls therefore time the simulator core,
not the Python traffic generator, and every mode/backend of a workload
consumes byte-identical injections. ``meta.methodology`` names this
scheme so gates never compare walls across methodologies.

``backend="vectorized"`` additionally times every workload on the numpy
structure-of-arrays core (``repro.network.vectorized``), asserts its
stats fingerprint is bit-identical to the scalar core's, and records
per-workload ``vectorized_wall_s``/``speedup_vectorized`` columns plus
saturation/overall speedup geomeans in the summary — the scalar columns
keep their historical meaning, so the perf trajectory stays comparable.
Every vectorized-capable backend (``vectorized``/``auto``/``batched``)
also times the 16-point low-load sweep once per point on the solo
vectorized core and once as 16 lanes of one ``BatchNetwork`` (the
``batched`` report section; every lane hard-asserted bit-identical to
its solo reference; ``--min-batched-speedup`` puts a gate floor under
the speedup). ``backend="auto"`` first runs the selector
microcalibration — measuring the scalar/vectorized crossover and
recording it as the report's ``calibration`` block, which
``repro.network.backend.load_calibration`` installs in later processes
— then records per-workload ``recommended_backend``/``fastest_backend``
columns; ``--gate`` fails when the selector disagrees with the measured
fastest core on more than one workload or recommends a core over 5%
slower than the best.
"""

from __future__ import annotations

import cProfile
import json
import math
import os
import platform
import pstats
import sys
import time

from ..instrument import git_sha, overhead_gate, run_manifest, write_manifest
from ..instrument.overhead import timing_gate, vectorized_overhead_gate
from ..store import SweepJournal
from ..network.config import BASELINE, PSEUDO_SB, NetworkConfig
from ..network.flit import Packet
from ..network.simulator import build_network
from ..topology import make_topology
from ..traffic.synthetic import SyntheticTraffic

#: (name, scheme, injection rate in flits/terminal/cycle, weight). 0.02 sits
#: in the paper's low-load latency region; 0.30 is just past saturation for
#: the baseline 8x8 mesh with XY routing. Weights skew the aggregate
#: speedups toward the saturation workloads that dominate sweep wall-clock.
CANONICAL_WORKLOADS = (
    ("mesh8x8-uniform-low-baseline", BASELINE, 0.02, 1),
    ("mesh8x8-uniform-low-pseudo_sb", PSEUDO_SB, 0.02, 1),
    ("mesh8x8-uniform-sat-baseline", BASELINE, 0.30, 3),
    ("mesh8x8-uniform-sat-pseudo_sb", PSEUDO_SB, 0.30, 3),
)

DEFAULT_CYCLES = 1500
DEFAULT_REPEATS = 3
_SEED = 7

#: Bench backends that time the vectorized core alongside the scalar one.
#: ``auto`` additionally runs the selector microcalibration and records
#: per-workload ``recommended_backend`` / ``fastest_backend`` columns;
#: every backend in this tuple also times the batched 16-point sweep.
_VEC_BACKENDS = ("vectorized", "auto", "batched")

#: Offered-load points probed by the selector microcalibration
#: (flits/terminal/cycle on the canonical 8x8 mesh).
CALIBRATION_RATES = (0.02, 0.05, 0.10, 0.20, 0.30)

#: The batched-backend benchmark: a 16-point low-load sweep (rates cycle
#: through this tuple, seeds vary per point) timed once per point on the
#: solo vectorized core and once as 16 lanes of one ``BatchNetwork``.
BATCHED_SWEEP_LANES = 16
BATCHED_SWEEP_RATES = (0.01, 0.02, 0.03, 0.04)

#: Timing-methodology tag written to ``meta``; the timing gate only
#: compares walls between reports with matching tags. Bump when the
#: timed region changes meaning (e.g. "replay-1" moved traffic
#: generation out of it).
METHODOLOGY = "replay-1"


class _InjectionSchedule:
    """The pre-drawn injection sequence of one canonical workload.

    A Bernoulli source draws per (terminal, cycle) independently of
    network state, so the whole sequence can be recorded up front —
    outside the timed region — and replayed identically into every
    mode and backend of the workload.
    """

    def __init__(self, rate: float, cycles: int, terminals: int,
                 packet_size: int = 5, seed: int = _SEED):
        traffic = SyntheticTraffic("uniform", terminals, rate, packet_size,
                                   seed=seed)
        entries: list[tuple[int, int, int]] = []

        class _Recorder:
            cycle = 0

            @staticmethod
            def inject(packet):
                """Record the draw instead of simulating it."""
                entries.append((_Recorder.cycle, packet.src, packet.dst))

        for cycle in range(cycles):
            _Recorder.cycle = cycle
            traffic.tick(_Recorder, cycle)
        self.entries = entries
        self.packet_size = packet_size

    def replay(self) -> "_ReplayTraffic":
        """A fresh traffic source replaying this schedule from the top."""
        return _ReplayTraffic(self)


class _ReplayTraffic:
    """Traffic source injecting a recorded schedule (fresh packets)."""

    def __init__(self, schedule: _InjectionSchedule):
        self._entries = schedule.entries
        self._size = schedule.packet_size
        self._pos = 0

    def tick(self, network, cycle: int) -> None:
        """Inject every recorded packet due this cycle."""
        entries, size = self._entries, self._size
        pos, n = self._pos, len(entries)
        while pos < n and entries[pos][0] == cycle:
            _, src, dst = entries[pos]
            network.inject(Packet(src, dst, size, cycle))
            pos += 1
        self._pos = pos

    def next_injection_cycle(self, cycle: int) -> int | None:
        """Cycle of the next pending injection (None when drained)."""
        pos = self._pos
        return self._entries[pos][0] if pos < len(self._entries) else None


def _simulate(scheme, rate: float, cycles: int, active: bool,
              backend: str = "scalar", schedule=None):
    """Run one canonical workload once; returns (stats dict, wall seconds).

    ``active=True`` is the shipped fast path (active sets + compiled
    routing); ``active=False`` is the exhaustive reference with dynamic
    routing, so the cross-check covers every hot-path optimization at
    once. ``backend="vectorized"`` runs the numpy structure-of-arrays
    core instead (``active`` is ignored: that core is always compiled).
    ``schedule`` replays pre-drawn injections so the timed region covers
    the simulator only; without one the Bernoulli source runs live.
    """
    config = NetworkConfig(num_vcs=4, buffer_depth=4, pseudo=scheme)
    topo = make_topology("mesh", 8, 8, 1)
    if backend == "vectorized":
        from ..network.vectorized import VectorNetwork
        net = VectorNetwork(topo, config, seed=_SEED)
    else:
        net = build_network(topo, config=config, seed=_SEED,
                            active_set=active, compiled_routing=active)
    if schedule is not None:
        traffic = schedule.replay()
    else:
        traffic = SyntheticTraffic("uniform", topo.num_terminals, rate, 5,
                                   seed=_SEED)
    net.stats.warmup_cycles = cycles // 5
    start = time.perf_counter()
    net.run(cycles, traffic)
    net.drain(max_cycles=500_000)
    wall = time.perf_counter() - start
    fingerprint = net.stats.fingerprint()
    fingerprint["final_cycle"] = net.cycle
    return fingerprint, wall


def time_workload(scheme, rate: float, cycles: int = DEFAULT_CYCLES,
                  repeats: int = DEFAULT_REPEATS,
                  backend: str = "scalar") -> dict:
    """Time one workload in both stepping modes and cross-check stats.

    With ``backend="vectorized"`` (or ``"auto"``/``"batched"``) the
    workload is additionally timed on the vectorized core against the
    same injection schedule, its stats fingerprint is asserted
    bit-identical to the scalar core's, and the row gains
    ``vectorized_wall_s`` / ``speedup_vectorized`` /
    ``vectorized_stats_identical`` columns. ``backend="auto"`` further
    records what ``choose_backend`` would pick for the workload
    (``recommended_backend``), which core actually measured fastest
    (``fastest_backend``), and the wall the recommendation implies
    (``auto_wall_s``) — the raw material of the auto-selector gate.
    """
    terminals = make_topology("mesh", 8, 8, 1).num_terminals
    schedule = _InjectionSchedule(rate, cycles, terminals)
    active_walls, reference_walls, vec_walls = [], [], []
    active_stats = reference_stats = vec_stats = None
    for _ in range(repeats):
        active_stats, wall = _simulate(scheme, rate, cycles, active=True,
                                       schedule=schedule)
        active_walls.append(wall)
        reference_stats, wall = _simulate(scheme, rate, cycles,
                                          active=False, schedule=schedule)
        reference_walls.append(wall)
        if backend in _VEC_BACKENDS:
            vec_stats, wall = _simulate(scheme, rate, cycles, active=True,
                                        backend="vectorized",
                                        schedule=schedule)
            vec_walls.append(wall)
    if active_stats != reference_stats:
        raise AssertionError(
            f"fast-path stats diverged from the exhaustive reference for "
            f"{scheme.label}@{rate}")
    wall_s = min(active_walls)
    reference_wall_s = min(reference_walls)
    row = {
        "scheme": scheme.label,
        "rate": rate,
        "cycles": cycles,
        "packets": active_stats["ejected_packets"],
        "wall_s": round(wall_s, 4),
        "reference_wall_s": round(reference_wall_s, 4),
        "speedup_vs_reference": round(reference_wall_s / wall_s, 3),
        "stats_identical": True,
    }
    if backend in _VEC_BACKENDS:
        if vec_stats != active_stats:
            diverged = sorted(
                k for k in set(vec_stats) | set(active_stats)
                if vec_stats.get(k) != active_stats.get(k))
            raise AssertionError(
                f"vectorized-backend stats diverged from the scalar core "
                f"for {scheme.label}@{rate}: {diverged}")
        vec_wall_s = min(vec_walls)
        row["vectorized_wall_s"] = round(vec_wall_s, 4)
        row["speedup_vectorized"] = round(wall_s / vec_wall_s, 3)
        row["vectorized_stats_identical"] = True
    if backend == "auto":
        from ..network.backend import choose_backend
        recommended = choose_backend(terminals=terminals, rate=rate,
                                     pseudo=scheme.enabled)
        row["recommended_backend"] = recommended
        row["fastest_backend"] = ("vectorized"
                                  if row["vectorized_wall_s"] < wall_s
                                  else "scalar")
        row["auto_wall_s"] = (row["vectorized_wall_s"]
                              if recommended == "vectorized" else
                              row["wall_s"])
    return row


def calibrate_selector(cycles: int = 600, show: bool = True) -> dict:
    """Measure the scalar/vectorized crossover and install it.

    Times both cores over ``CALIBRATION_RATES`` on the canonical 8x8
    mesh (replayed injections, one repeat — a probe, not a benchmark)
    and places the crossover at the midpoint of the bracketing
    offered-load points, per scheme kind. The measured block is
    installed via ``repro.network.backend.set_calibration`` — so the
    ``auto`` columns of the same bench run use it — and returned for
    recording into BENCH_core.json, where ``load_calibration`` can pick
    it up in later processes.
    """
    from ..network.backend import set_calibration
    terminals = make_topology("mesh", 8, 8, 1).num_terminals
    cross: dict[str, float] = {}
    probe: dict[str, list] = {}
    for kind, scheme in (("baseline", BASELINE), ("pseudo", PSEUDO_SB)):
        rows = []
        for rate in CALIBRATION_RATES:
            schedule = _InjectionSchedule(rate, cycles, terminals)
            _, scalar_wall = _simulate(scheme, rate, cycles, active=True,
                                       schedule=schedule)
            _, vec_wall = _simulate(scheme, rate, cycles, active=True,
                                    backend="vectorized", schedule=schedule)
            rows.append({"rate": rate,
                         "offered_flits_per_cycle": round(rate * terminals,
                                                          3),
                         "scalar_wall_s": round(scalar_wall, 4),
                         "vectorized_wall_s": round(vec_wall, 4)})
        crossover = None
        prev = None
        for row in rows:
            if row["vectorized_wall_s"] <= row["scalar_wall_s"]:
                if prev is None:
                    crossover = row["offered_flits_per_cycle"]
                else:
                    crossover = (prev["offered_flits_per_cycle"]
                                 + row["offered_flits_per_cycle"]) / 2
                break
            prev = row
        if crossover is None:
            # The vectorized core never won in the probed range: place
            # the crossover past it so ``auto`` keeps picking scalar.
            crossover = rows[-1]["offered_flits_per_cycle"] * 2
        cross[kind] = round(crossover, 2)
        probe[kind] = rows
    set_calibration({"crossover_flits_per_cycle": cross,
                     "source": "measured"})
    if show:
        print(f"{'selector calibration (flits/cyc)':32s} "
              f"baseline {cross['baseline']:g}  pseudo {cross['pseudo']:g}")
    return {"crossover_flits_per_cycle": cross, "source": "measured",
            "probe": {"cycles": cycles, "terminals": terminals,
                      "rates": list(CALIBRATION_RATES),
                      "workloads": probe}}


def time_batched_sweep(cycles: int = DEFAULT_CYCLES,
                       repeats: int = DEFAULT_REPEATS) -> dict:
    """Time a 16-point low-load sweep solo-vectorized vs lane-batched.

    Every point runs the canonical 8x8 mesh with the full Pseudo+S+B
    scheme under uniform Bernoulli traffic (rates cycle through
    ``BATCHED_SWEEP_RATES``, seeds vary per point). The solo wall sums
    16 independent ``VectorNetwork`` runs; the batched wall is one
    16-lane ``BatchNetwork`` run over byte-identical injection
    sequences (``SyntheticTraffic`` pre-draws its outcomes, so solo and
    lane consume the same stream). Every lane's stats fingerprint is
    hard-asserted identical to its solo reference before any timing is
    reported. Walls are best-of-``repeats``.
    """
    from ..network.vectorized import BatchNetwork, VectorNetwork
    config = NetworkConfig(num_vcs=4, buffer_depth=4, pseudo=PSEUDO_SB)
    topo = make_topology("mesh", 8, 8, 1)
    terminals = topo.num_terminals
    points = [(BATCHED_SWEEP_RATES[i % len(BATCHED_SWEEP_RATES)], _SEED + i)
              for i in range(BATCHED_SWEEP_LANES)]
    warmup = cycles // 5

    def traffics():
        return [SyntheticTraffic("uniform", terminals, rate, 5, seed=seed)
                for rate, seed in points]

    solo_walls, batched_walls = [], []
    for _ in range(repeats):
        solo_prints = []
        wall = 0.0
        for (rate, seed), traffic in zip(points, traffics()):
            net = VectorNetwork(topo, config, seed=seed)
            net.stats.warmup_cycles = warmup
            start = time.perf_counter()
            net.run(cycles, traffic)
            net.drain(max_cycles=500_000)
            wall += time.perf_counter() - start
            solo_prints.append(net.stats.fingerprint())
        solo_walls.append(wall)
        bnet = BatchNetwork(topo, config,
                            seeds=[seed for _, seed in points])
        batch_traffics = traffics()
        start = time.perf_counter()
        bnet.run_batch(batch_traffics, [cycles] * len(points),
                       warmups=[warmup] * len(points))
        bnet.drain(max_cycles=500_000)
        batched_walls.append(time.perf_counter() - start)
        for lane, solo in enumerate(solo_prints):
            got = bnet.lane_stats(lane).fingerprint()
            if got != solo:
                diverged = sorted(k for k in set(got) | set(solo)
                                  if got.get(k) != solo.get(k))
                raise AssertionError(
                    f"batched lane {lane} (rate "
                    f"{points[lane][0]}, seed {points[lane][1]}) diverged "
                    f"from its solo vectorized reference: {diverged}")
    solo_wall_s = min(solo_walls)
    batched_wall_s = min(batched_walls)
    return {
        "name": "mesh8x8-lowload-sweep16-pseudo_sb",
        "lanes": len(points),
        "rates": sorted(set(rate for rate, _ in points)),
        "cycles": cycles,
        "solo_vectorized_wall_s": round(solo_wall_s, 4),
        "batched_wall_s": round(batched_wall_s, 4),
        "speedup_batched": round(solo_wall_s / batched_wall_s, 3),
        "stats_identical": True,
    }


def _vectorized_speedup(workloads: list[dict], weights: dict[str, int],
                        sat_only: bool) -> float | None:
    """Weighted geomean of scalar-vs-vectorized wall ratios.

    ``sat_only`` restricts to the saturation workloads (weight > 1) —
    the metric the backend gate enforces, because sweep wall-clock is
    saturation-dominated.
    """
    log_sum = 0.0
    weight_sum = 0
    for row in workloads:
        weight = weights[row["name"]]
        if sat_only and weight <= 1:
            continue
        vec = row.get("vectorized_wall_s")
        if vec is None:
            return None
        log_sum += weight * math.log(row["wall_s"] / vec)
        weight_sum += weight
    if not weight_sum:
        return None
    return round(math.exp(log_sum / weight_sum), 3)


def profile_vectorized(cycles: int = DEFAULT_CYCLES) -> dict:
    """One profiled vectorized repeat of the saturation pseudo workload.

    Returns the per-phase wall-time breakdown of the vectorized step
    loop (``VectorNetwork.enable_profile``: BW / VA+SA / ST+credit /
    PC maintenance / inject, plus stepped vs fast-forwarded cycles) —
    a cheap always-on complement to ``--profile``'s cProfile dump,
    recorded into the bench report so the phase mix is tracked over
    time alongside the walls. Never timed: the profiled repeat is
    separate from the rows the timing gate compares.
    """
    from ..network.vectorized import VectorNetwork
    config = NetworkConfig(num_vcs=4, buffer_depth=4, pseudo=PSEUDO_SB)
    topo = make_topology("mesh", 8, 8, 1)
    schedule = _InjectionSchedule(0.30, cycles, topo.num_terminals)
    net = VectorNetwork(topo, config, seed=_SEED)
    net.enable_profile()
    net.stats.warmup_cycles = cycles // 5
    net.run(cycles, schedule.replay())
    net.drain(max_cycles=500_000)
    doc = net.profile()
    doc["workload"] = "mesh8x8-uniform-sat-pseudo_sb"
    return doc


def profile_workloads(cycles: int = DEFAULT_CYCLES, top: int = 20) -> None:
    """Run one repeat of every canonical workload under cProfile and print
    the ``top`` cumulative-time entries."""
    profiler = cProfile.Profile()
    profiler.enable()
    for _name, scheme, rate, _weight in CANONICAL_WORKLOADS:
        _simulate(scheme, rate, cycles, active=True)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    stats.print_stats(top)


def run_bench(cycles: int = DEFAULT_CYCLES, repeats: int = DEFAULT_REPEATS,
              out_path: str | None = "BENCH_core.json",
              show: bool = True, profile: bool = False,
              gate: bool = False, check: bool = False,
              journal: str | None = None, resume: bool = False,
              backend: str = "scalar",
              min_backend_speedup: float | None = None,
              min_batched_speedup: float | None = None) -> dict:
    """Time every canonical workload; optionally write ``BENCH_core.json``.

    ``check=True`` additionally runs the monitored self-check
    (``repro.monitor.self_check``) on the same canonical rates and writes
    its metrics document next to the report (``*.metrics.json``).

    ``journal=`` checkpoints every timed workload row to a
    ``repro.store.SweepJournal`` as it lands; ``resume=True`` reuses the
    journaled rows of an interrupted earlier bench instead of re-timing
    them (the resumed rows carry the walls the interrupted run measured —
    fine for finishing a report, not for an apples-to-apples perf gate).

    ``backend="vectorized"`` (or ``"auto"``/``"batched"``) also times
    every workload on the vectorized core (scalar-parity asserted;
    per-row speedup columns, summary geomeans) plus the 16-point
    lane-batched sweep (``batched`` report section, every lane
    fingerprint hard-asserted against its solo reference), records one
    profiled vectorized repeat's per-phase wall breakdown as the
    report's ``phase_profile`` block, and — under ``gate=True`` — runs
    the vectorized overhead gate too (probes cold on a default-built
    ``VectorNetwork``; stats bit-identical with ``VectorSeriesProbe``
    plus the strict invariant checker attached). With
    ``gate=True``, ``min_backend_speedup`` sets a floor on the
    saturation speedup geomean and ``min_batched_speedup`` one on the
    batched-sweep speedup. ``backend="auto"`` additionally runs the
    selector microcalibration (recorded as the report's ``calibration``
    block), records ``recommended_backend``/``fastest_backend`` per
    workload, and — under ``gate=True`` — fails when the selector
    disagrees with the measured fastest core on more than one workload
    or its pick is over 5% slower than the best core anywhere.
    """
    previous = None
    if gate and out_path is not None and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            previous = json.load(fh)
    bench_journal = None
    completed_rows: dict = {}
    if journal is not None:
        bench_journal = SweepJournal(journal)
        if resume:
            completed_rows = bench_journal.load()
        else:
            bench_journal.truncate()
    start_wall = time.perf_counter()
    calibration_block = None
    if backend == "auto":
        # Measure before timing the workloads so the auto columns (and
        # the gate) judge the freshly calibrated selector, not a stale
        # or default one.
        calibration_block = calibrate_selector(cycles=min(cycles, 600),
                                               show=show)
    workloads = []
    weights = {name: weight for name, _, _, weight in CANONICAL_WORKLOADS}
    for name, scheme, rate, weight in CANONICAL_WORKLOADS:
        journal_key = (f"bench:{name}:cycles={cycles}:repeats={repeats}"
                       f":backend={backend}")
        resumed = completed_rows.get(journal_key)
        if resumed is not None:
            workloads.append(resumed)
            if show:
                print(f"{name:32s} {resumed['wall_s']:7.3f}s  (resumed "
                      f"from journal)")
            continue
        row = {"name": name, "weight": weight,
               **time_workload(scheme, rate, cycles, repeats,
                               backend=backend)}
        workloads.append(row)
        if bench_journal is not None:
            bench_journal.append(journal_key, row)
        if show:
            trail = ""
            vec = row.get("speedup_vectorized")
            if vec is not None:
                trail += (f"  vec {row['vectorized_wall_s']:.3f}s "
                          f"({vec}x)")
            recommended = row.get("recommended_backend")
            if recommended is not None:
                trail += f"  auto->{recommended}"
            print(f"{name:32s} {row['wall_s']:7.3f}s  "
                  f"(reference {row['reference_wall_s']:7.3f}s){trail}")
    batched_row = None
    if backend in _VEC_BACKENDS:
        journal_key = (f"bench:batched-sweep:cycles={cycles}"
                       f":repeats={repeats}")
        batched_row = completed_rows.get(journal_key)
        if batched_row is None:
            batched_row = time_batched_sweep(cycles, repeats)
            if bench_journal is not None:
                bench_journal.append(journal_key, batched_row)
        if show:
            print(f"{batched_row['name']:32s} "
                  f"{batched_row['batched_wall_s']:7.3f}s  "
                  f"(solo vec {batched_row['solo_vectorized_wall_s']:7.3f}s)"
                  f"  batched {batched_row['speedup_batched']}x")
    if bench_journal is not None:
        bench_journal.close()
    phase_profile = None
    if backend in _VEC_BACKENDS:
        phase_profile = profile_vectorized(cycles)
        if show:
            fractions = phase_profile["fractions"]
            mix = "  ".join(f"{key} {fractions[key]:.0%}"
                            for key in ("bw", "va_sa", "st_credit", "pc",
                                        "inject"))
            print(f"{'vectorized phase profile':32s} {mix}")
    summary = {}
    if backend in _VEC_BACKENDS:
        summary["speedup_vectorized_sat"] = _vectorized_speedup(
            workloads, weights, sat_only=True)
        summary["speedup_vectorized_all"] = _vectorized_speedup(
            workloads, weights, sat_only=False)
        if show and summary["speedup_vectorized_sat"] is not None:
            print(f"{'vectorized speedup (sat geomean)':32s} "
                  f"{summary['speedup_vectorized_sat']:7.3f}x")
    if batched_row is not None:
        summary["speedup_batched"] = batched_row["speedup_batched"]
    if backend == "auto":
        disagreements = [row["name"] for row in workloads
                         if row["recommended_backend"]
                         != row["fastest_backend"]]
        penalty = max(
            row["auto_wall_s"]
            / min(row["wall_s"], row["vectorized_wall_s"]) - 1.0
            for row in workloads)
        summary["recommended_backend"] = {
            row["name"]: row["recommended_backend"] for row in workloads}
        summary["auto_disagreements"] = disagreements
        summary["auto_max_penalty"] = round(penalty, 4)
        if show:
            print(f"{'auto selector':32s} {len(disagreements)} "
                  f"disagreement(s), max penalty {penalty:+.2%}")
    report = {
        "meta": {
            "generated_unix": int(time.time()),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "git_sha": git_sha(),
            "cycles": cycles,
            "repeats": repeats,
            "seed": _SEED,
            "backend": backend,
            "methodology": METHODOLOGY,
        },
        "summary": summary,
        "workloads": workloads,
    }
    if calibration_block is not None:
        report["calibration"] = calibration_block
    if batched_row is not None:
        report["batched"] = batched_row
    if phase_profile is not None:
        report["phase_profile"] = phase_profile
    if gate:
        # Scale-independent checks always run; the timing comparison only
        # applies against a previous report at the same cycle count and
        # timing methodology (walls across methodologies don't compare).
        gate_report = overhead_gate(cycles=min(cycles, 400), show=show)
        if backend in _VEC_BACKENDS:
            gate_report["vectorized_overhead"] = vectorized_overhead_gate(
                cycles=min(cycles, 400), show=show)
        if (previous is not None
                and previous["meta"]["cycles"] == cycles
                and previous["meta"].get("methodology") == METHODOLOGY):
            gate_report["timing"] = timing_gate(
                workloads, previous["workloads"], weights)
            if show and gate_report["timing"].get("applied"):
                print(f"timing gate: {gate_report['timing']['overhead']:+.2%}"
                      f" vs previous report (threshold "
                      f"{gate_report['timing']['threshold']:.0%})")
        elif show:
            print("timing gate: skipped (no previous report at this "
                  "scale/methodology)")
        if backend in _VEC_BACKENDS:
            # Parity already hard-asserted per workload in time_workload;
            # record it, plus the speedup floor when one was requested.
            sat = summary.get("speedup_vectorized_sat")
            gate_report["backend"] = {
                "backend": backend,
                "stats_identical": all(
                    row.get("vectorized_stats_identical", False)
                    for row in workloads),
                "speedup_vectorized_sat": sat,
                "min_backend_speedup": min_backend_speedup,
            }
            if (min_backend_speedup is not None
                    and (sat is None or sat < min_backend_speedup)):
                raise AssertionError(
                    f"vectorized-backend gate: saturation speedup geomean "
                    f"{sat} below the required {min_backend_speedup}x")
            if show:
                print(f"backend gate: vectorized parity ok, sat speedup "
                      f"{sat}x" + (f" (floor {min_backend_speedup}x)"
                                   if min_backend_speedup else ""))
        if batched_row is not None:
            gate_report["batched"] = {
                "speedup_batched": batched_row["speedup_batched"],
                "stats_identical": batched_row["stats_identical"],
                "min_batched_speedup": min_batched_speedup,
            }
            if (min_batched_speedup is not None
                    and batched_row["speedup_batched"]
                    < min_batched_speedup):
                raise AssertionError(
                    f"batched-backend gate: sweep speedup "
                    f"{batched_row['speedup_batched']} below the required "
                    f"{min_batched_speedup}x")
            if show:
                print(f"batched gate: lane parity ok, sweep speedup "
                      f"{batched_row['speedup_batched']}x"
                      + (f" (floor {min_batched_speedup}x)"
                         if min_batched_speedup else ""))
        if backend == "auto":
            # The selector is judged against the measurements of this
            # very run: one disagreement is tolerated (the crossover
            # region is noise-sensitive), two means the calibration is
            # wrong; a >5% penalty means auto's pick costs real time.
            disagreements = summary["auto_disagreements"]
            penalty = summary["auto_max_penalty"]
            gate_report["auto"] = {
                "disagreements": disagreements,
                "max_penalty": penalty,
            }
            if len(disagreements) > 1:
                raise AssertionError(
                    f"auto-selector gate: recommended backend disagrees "
                    f"with the measured fastest on {len(disagreements)} "
                    f"workloads: {disagreements}")
            if penalty > 0.05:
                raise AssertionError(
                    f"auto-selector gate: auto's pick is {penalty:.1%} "
                    f"slower than the best backend on some workload "
                    f"(allowed 5%)")
            if show:
                print(f"auto gate: {len(disagreements)} disagreement(s), "
                      f"max penalty {penalty:+.2%}")
        # Telemetry must be free when off and pure observation when on:
        # a telemetry-off sweep constructs no emitter at all, and a
        # telemetry-on sweep returns bit-identical results. Raises
        # OverheadGateError on any violation.
        from ..telemetry.overhead import telemetry_cold_check
        gate_report["telemetry"] = telemetry_cold_check()
        if show:
            tel_gate = gate_report["telemetry"]
            print(f"telemetry gate: off-by-default ok, "
                  f"{tel_gate['points']} points bit-identical with "
                  f"telemetry on ({tel_gate['stream_records']} stream "
                  f"records)")
        report["overhead_gate"] = gate_report
    if check:
        from ..monitor import metrics_path, self_check, write_metrics
        check_report = self_check(cycles=min(cycles, 600), show=show)
        report["self_check"] = {
            "runs": len(check_report["runs"]),
            "violations": sum(run["violation_count"]
                              for run in check_report["runs"]),
            "stats_identical": all(run["stats_identical"]
                                   for run in check_report["runs"]),
        }
        if out_path is not None:
            path = write_metrics(metrics_path(out_path), check_report)
            if show:
                print(f"wrote {path}")
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        manifest = run_manifest(
            {"driver": "bench", "cycles": cycles, "repeats": repeats,
             "backend": backend, "methodology": METHODOLOGY,
             "workloads": [name for name, *_ in CANONICAL_WORKLOADS]},
            seed=_SEED, wall_s=time.perf_counter() - start_wall)
        write_manifest(manifest, out_path)
        if show:
            print(f"wrote {out_path}")
    if profile:
        if show:
            print("\nprofiling one repeat of every workload (fast path):")
        profile_workloads(cycles)
    return report
