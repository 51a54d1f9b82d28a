"""Traced run, part (a): a workload's points staged call by call.

For a fixed sample of the workload's points this replays the sequence
``run_experiment`` / ``run_batch_experiments`` / the sweep scheduler
run, with public calls only and one span per call, so that host time
is attributed to stages::

    store_resolve    store_key, ResultStore.get, payload_to_result,
                     SweepJournal.load
    network_build    harness.experiment.build_network / BatchNetwork(...)
    traffic          SyntheticTraffic(...) / get_trace
    network_step     net.run + net.drain / run_batch / the replay loop
    harness_extract  run_manifest, Result.from_network / from_stats
    store_persist    result_to_payload, ResultStore.put, SweepJournal.append

``build_network`` cannot be opened from outside; its ``make_topology``
and ``compile_routing`` parts are timed by the layer probes. Traffic
ticks run inside ``net.run`` and are part of ``network_step``.

Every staged Result must equal the Result the harness returns for the
same point; the harness call doubles as the untraced wall that
``trace.overhead_pct`` compares the traced wall against.
"""

from __future__ import annotations

import os
import time

from repro.harness import Result, build_network, get_trace
from repro.instrument import run_manifest
from repro.network import NetworkConfig
from repro.network.backend import backend_of
from repro.network.vectorized import BatchNetwork
from repro.store import (ResultStore, SweepJournal, payload_to_result,
                         result_to_payload, store_key)
from repro.topology import make_topology
from repro.traffic import SyntheticTraffic, TraceReplayTraffic

STAGES = ("network_build", "traffic", "network_step", "harness_extract",
          "store_resolve", "store_persist")

DRAIN_LIMIT = 500_000  # the harness's own drain bound


def replay_trace(net, trace) -> None:
    """Drive ``net`` with a recorded trace (the harness's replay loop)."""
    replay = TraceReplayTraffic(trace)
    while not replay.exhausted:
        replay.tick(net, net.cycle)
        net.step()
        nxt = replay.next_injection_cycle(net.cycle)
        if nxt is not None:
            # Idle gaps between scheduled injections are skipped outright.
            net.fast_forward(nxt, nxt)
    net.drain(max_cycles=DRAIN_LIMIT)


def _simulate(tr, cfg):
    """Build, drive and extract one solo point: run_experiment's body."""
    start = time.perf_counter()
    with tr.span("harness.experiment.build_network", "harness.experiment",
                 "network_build"):
        net = build_network(cfg)
    layer = f"network.{backend_of(net)}"
    if cfg.benchmark is not None:
        with tr.span("harness.traces.get_trace", "harness.traces",
                     "traffic"):
            trace = get_trace(cfg.benchmark, cycles=cfg.trace_cycles,
                              warmup=cfg.trace_warmup, seed=cfg.seed)
        with tr.span("replay loop + drain", layer, "network_step"):
            replay_trace(net, trace)
            net.check_invariants()
    else:
        with tr.span("traffic.SyntheticTraffic", "traffic", "traffic"):
            traffic = SyntheticTraffic(
                cfg.pattern, net.topology.num_terminals, cfg.rate,
                cfg.packet_size, seed=cfg.seed)
        net.stats.warmup_cycles = cfg.synth_warmup
        with tr.span("net.run + net.drain", layer, "network_step"):
            net.run(cfg.synth_cycles, traffic)
            net.drain(max_cycles=DRAIN_LIMIT)
            net.check_invariants()
    wall = time.perf_counter() - start
    with tr.span("instrument.run_manifest", "instrument",
                 "harness_extract"):
        manifest = run_manifest(cfg, seed=cfg.seed, cycles=net.cycle,
                                wall_s=wall,
                                extra={"backend": backend_of(net)})
    with tr.span("Result.from_network", "harness.experiment",
                 "harness_extract"):
        return Result.from_network(cfg, net, manifest=manifest)


def stage_point(tr, cfg, point, *, keyed=False, store=None, journal=None):
    """One solo point the way the scheduler resolves and persists it.

    ``keyed`` adds the ``store_key`` every sweep computes per point;
    ``store`` / ``journal`` add the cold path's miss, put and append.
    """
    with tr.span("point", "harness.parallel", point=point):
        key = None
        if keyed:
            with tr.span("store.store_key", "store", "store_resolve"):
                key = store_key(cfg)
        if store is not None:
            with tr.span("ResultStore.get", "store", "store_resolve"):
                store.get(key)  # cold: a miss
        result = _simulate(tr, cfg)
        if store is not None:
            with tr.span("store.result_to_payload", "store",
                         "store_persist"):
                payload = result_to_payload(result)
            with tr.span("ResultStore.put", "store", "store_persist"):
                store.put(key, payload, label=cfg.label)
        if journal is not None:
            with tr.span("store.result_to_payload", "store",
                         "store_persist"):
                payload = result_to_payload(result)
            with tr.span("SweepJournal.append", "store", "store_persist"):
                journal.append(key, payload)
    return result


def stage_unit(tr, configs):
    """One batched unit: run_batch_experiments' body, span by span."""
    first = configs[0]
    with tr.span("unit", "harness.parallel", point=f"unit-{len(configs)}"):
        with tr.span("store.store_key", "store", "store_resolve"):
            for cfg in configs:
                store_key(cfg)
        start = time.perf_counter()
        with tr.span("BatchNetwork", "network.batched", "network_build"):
            topo = make_topology(first.topology, first.kx, first.ky,
                                 first.concentration)
            net = BatchNetwork(
                topo, NetworkConfig(num_vcs=first.num_vcs,
                                    buffer_depth=first.buffer_depth,
                                    pseudo=first.scheme, mshrs=0),
                routing=first.routing, vc_policy=first.vc_policy,
                seeds=[cfg.seed for cfg in configs])
        with tr.span("traffic.SyntheticTraffic", "traffic", "traffic"):
            traffics = [SyntheticTraffic(cfg.pattern, topo.num_terminals,
                                         cfg.rate, cfg.packet_size,
                                         seed=cfg.seed)
                        for cfg in configs]
        with tr.span("run_batch + drain", "network.batched",
                     "network_step"):
            net.run_batch(traffics, [cfg.synth_cycles for cfg in configs],
                          [cfg.synth_warmup for cfg in configs])
            net.drain(max_cycles=DRAIN_LIMIT)
            net.check_invariants()
        wall = time.perf_counter() - start
        results = []
        for lane, cfg in enumerate(configs):
            with tr.span("instrument.run_manifest", "instrument",
                         "harness_extract"):
                manifest = run_manifest(
                    cfg, seed=cfg.seed, cycles=net.cycle,
                    wall_s=wall / len(configs),
                    extra={"batch_lanes": len(configs),
                           "backend": "batched", "batch_lane": lane})
            with tr.span("Result.from_stats", "harness.experiment",
                         "harness_extract"):
                results.append(Result.from_stats(
                    cfg, net.lane_stats(lane), manifest=manifest))
    return results


def stage_replay(tr, configs, store_dir, journal_path):
    """Warm answers: the store tier, then the journal tier."""
    store = ResultStore(store_dir)
    results = []
    for i, cfg in enumerate(configs):
        with tr.span("point", "harness.parallel", point=f"store-{i}"):
            with tr.span("store.store_key", "store", "store_resolve"):
                key = store_key(cfg)
            with tr.span("ResultStore.get", "store", "store_resolve"):
                payload = store.get(key)
            with tr.span("store.payload_to_result", "store",
                         "store_resolve"):
                results.append(payload_to_result(payload))
    with tr.span("SweepJournal.load", "store", "store_resolve",
                 point="journal"):
        journaled = SweepJournal(journal_path).load()
    for i, cfg in enumerate(configs):
        with tr.span("point", "harness.parallel", point=f"journal-{i}"):
            with tr.span("store.store_key", "store", "store_resolve"):
                key = store_key(cfg)
            with tr.span("store.payload_to_result", "store",
                         "store_resolve"):
                results.append(payload_to_result(journaled[key]))
    return results


def run(wl, tr) -> dict:
    """Stage the workload's sample; return metrics and the checks' tally."""
    sample = wl.sample()
    start = time.perf_counter()
    harness = wl.sweep(sample, 1)  # inline: the untraced reference
    untraced = time.perf_counter() - start
    problems = wl.end_pass()

    start = time.perf_counter()
    if wl.name == "lowload_sweep":
        staged = stage_unit(tr, sample)
    elif wl.name == "replay_warm":
        staged = stage_replay(tr, sample, wl.store_dir, wl.journal)
    elif wl.name == "small_points_cold":
        store = ResultStore(os.path.join(wl.tmp, "staged-store"))
        with SweepJournal(os.path.join(wl.tmp, "staged.jsonl")) as journal:
            staged = [stage_point(tr, cfg, i, keyed=True, store=store,
                                  journal=journal)
                      for i, cfg in enumerate(sample)]
    else:
        staged = [stage_point(tr, cfg, i, keyed=wl.name == "fig8_traces")
                  for i, cfg in enumerate(sample)]
    traced = time.perf_counter() - start

    failed = sum(1 for a, b in zip(staged, harness) if a != b)
    problems += wl.backend_problems(staged)
    metrics = {f"share.{stage}": share
               for stage, share in tr.stage_shares(STAGES).items()}
    metrics["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
    return {"metrics": metrics, "attempted": len(staged), "failed": failed,
            "problems": problems}
