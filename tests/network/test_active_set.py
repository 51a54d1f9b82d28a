"""Active-set stepping must be indistinguishable from exhaustive stepping.

``Network.step`` only visits components that registered work for the
current cycle, and ``run`` / ``drain`` / ``fast_forward`` skip fully
quiescent stretches. These tests run the same workload twice — through
the network's own loop and through the exhaustive oracle in
``exhaustive.py``, which visits every component every cycle and never
skips one — and require *bit-identical* ``NetworkStats`` plus the same
final cycle, across topologies, pseudo-circuit schemes, traffic
patterns and CMP trace replay (driven the way ``experiment._simulate``
drives it). Both loops read the same compiled routing tables; the
oracle for those is ``route()`` / ``vc_limits()`` in
``tests/routing/test_compiled.py``.

Also covers the parallel sweep harness: a multi-worker run must return
rows identical to a serial run (deterministic per-point seeds, ordered
merge).
"""

import pytest

from repro.harness import experiment
from repro.harness.experiment import ExperimentConfig, clear_cache
from repro.harness.sweep import sweep_load, sweep_vcs
from repro.network.config import (BASELINE, NetworkConfig, PSEUDO, PSEUDO_B,
                                  PSEUDO_S, PSEUDO_SB)
from repro.harness.traces import get_trace
from repro.network.simulator import Network
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic
from repro.traffic.trace import TraceReplayTraffic

from . import exhaustive

CYCLES = 300
RATE = 0.08


def _fingerprint(topo_name, kx, ky, conc, scheme, pattern, active,
                 vc_policy="dynamic", seed=3, rate=RATE):
    """Simulate once and return every observable stat plus the end cycle."""
    topo = make_topology(topo_name, kx, ky, conc)
    net = Network(topo, NetworkConfig(num_vcs=4, buffer_depth=4,
                                      pseudo=scheme),
                  vc_policy=vc_policy, seed=seed)
    traffic = SyntheticTraffic(pattern, topo.num_terminals, rate, 3,
                               seed=seed)
    net.stats.warmup_cycles = CYCLES // 4
    if active:
        net.run(CYCLES, traffic)
        net.drain(max_cycles=100_000)
    else:
        exhaustive.run_and_drain(net, CYCLES, traffic, max_cycles=100_000)
    net.check_invariants()
    fp = net.stats.fingerprint()
    fp["final_cycle"] = net.cycle
    return fp


def _assert_equivalent(*args, **kwargs):
    active = _fingerprint(*args, active=True, **kwargs)
    exhaustive = _fingerprint(*args, active=False, **kwargs)
    assert active == exhaustive
    assert active["ejected_packets"] > 0  # the workload actually ran


class TestSchemeEquivalence:
    """Every pseudo-circuit variant, on the paper's mesh."""

    @pytest.mark.parametrize(
        "scheme", [BASELINE, PSEUDO, PSEUDO_S, PSEUDO_B, PSEUDO_SB],
        ids=lambda s: s.label)
    def test_mesh_uniform(self, scheme):
        _assert_equivalent("mesh", 4, 4, 1, scheme, "uniform")

    @pytest.mark.parametrize(
        "scheme", [BASELINE, PSEUDO_SB], ids=lambda s: s.label)
    def test_static_va(self, scheme):
        _assert_equivalent("mesh", 4, 4, 1, scheme, "uniform",
                           vc_policy="static")

    @pytest.mark.parametrize(
        "scheme", [BASELINE, PSEUDO_SB], ids=lambda s: s.label)
    def test_mesh8_saturation(self, scheme):
        """The canonical scale: the paper's 8x8 mesh just past saturation,
        where every router is busy and the active set is the whole chip."""
        _assert_equivalent("mesh", 8, 8, 1, scheme, "uniform", rate=0.30)


class TestTopologyEquivalence:
    """Multi-drop and high-radix topologies exercise other port shapes."""

    @pytest.mark.parametrize("topo,conc", [
        ("mesh", 1), ("cmesh", 4), ("fbfly", 4), ("mecs", 4)])
    @pytest.mark.parametrize(
        "scheme", [BASELINE, PSEUDO_SB], ids=lambda s: s.label)
    def test_uniform(self, topo, conc, scheme):
        _assert_equivalent(topo, 4, 4, conc, scheme, "uniform")


class TestPatternEquivalence:
    """Non-uniform patterns change which routers go idle (and when)."""

    @pytest.mark.parametrize("pattern", ["transpose", "hotspot"])
    @pytest.mark.parametrize(
        "scheme", [BASELINE, PSEUDO, PSEUDO_SB], ids=lambda s: s.label)
    def test_mesh(self, pattern, scheme):
        _assert_equivalent("mesh", 4, 4, 1, scheme, pattern)


TRACE_BENCHMARK = "fma3d"
TRACE_CYCLES = 400
TRACE_WARMUP = 100


def _replay_fingerprint(topo_name, routing, scheme, active):
    """Replay a short CMP trace on the scalar core and fingerprint it."""
    cfg = ExperimentConfig(
        topology=topo_name, kx=4, ky=4, concentration=4, routing=routing,
        vc_policy="dynamic", scheme=scheme, benchmark=TRACE_BENCHMARK,
        trace_cycles=TRACE_CYCLES, trace_warmup=TRACE_WARMUP,
        backend="scalar")
    net = experiment.build_network(cfg)
    assert net.config.mshrs == cfg.mshrs > 0  # the NICs self-throttle
    trace = get_trace(TRACE_BENCHMARK, cycles=TRACE_CYCLES,
                      warmup=TRACE_WARMUP, seed=cfg.seed)
    if active:
        replay = TraceReplayTraffic(trace)
        net.run(replay.horizon, replay)
        net.drain(max_cycles=500_000)
    else:
        exhaustive.replay(net, trace)
    net.check_invariants()
    fp = net.stats.fingerprint()
    fp["final_cycle"] = net.cycle
    return fp


class TestTraceReplayEquivalence:
    """Trace replay steps, fast-forwards between scheduled injections and
    drains with NIC self-throttling (``mshrs``): MECS, the Fig. 13
    topology only the scalar core runs, and Fig. 8's cmesh under
    O1TURN."""

    @pytest.mark.parametrize("topo,routing", [
        ("mecs", "xy"), ("cmesh", "o1turn")])
    @pytest.mark.parametrize(
        "scheme", [BASELINE, PSEUDO_SB], ids=lambda s: s.label)
    def test_cmp_trace(self, topo, routing, scheme):
        active = _replay_fingerprint(topo, routing, scheme, True)
        oracle = _replay_fingerprint(topo, routing, scheme, False)
        assert active == oracle
        assert active["ejected_packets"] > 0


class TestQuiescence:
    def test_idle_network_fast_forwards(self):
        """With no traffic source, drain() must not iterate cycle by cycle."""
        net = Network(make_topology("mesh", 4, 4, 1), NetworkConfig())
        net.run(5)
        assert net.quiescent()
        start = net.cycle
        net.run(10_000)
        assert net.cycle == start + 10_000
        assert net.in_flight_packets() == 0


class TestParallelSweepDeterminism:
    """Worker-pool dispatch must be invisible in the results."""

    def test_sweep_load_matches_serial(self):
        kwargs = dict(loads=(0.05, 0.15), kx=4, ky=4, synth_cycles=300,
                      synth_warmup=75)
        serial = sweep_load(max_workers=1, **kwargs)
        clear_cache()  # force the parallel run to actually simulate
        parallel = sweep_load(max_workers=2, **kwargs)
        assert serial == parallel

    def test_sweep_vcs_matches_serial(self):
        kwargs = dict(vc_counts=(2, 4), kx=4, ky=4, synth_cycles=300,
                      synth_warmup=75)
        serial = sweep_vcs(max_workers=1, **kwargs)
        clear_cache()
        parallel = sweep_vcs(max_workers=3, **kwargs)
        assert serial == parallel
