"""Active-set stepping must be indistinguishable from exhaustive stepping.

The active-set core (``Network._step_active``) only visits components that
registered work for the current cycle and fast-forwards fully quiescent
stretches. These tests run the same workload twice — once per stepping
mode — and require *bit-identical* ``NetworkStats`` plus the same final
cycle, across topologies, pseudo-circuit schemes, and traffic patterns.

Also covers the parallel sweep harness: a multi-worker run must return
rows identical to a serial run (deterministic per-point seeds, ordered
merge).
"""

import pytest

from repro.harness.experiment import clear_cache
from repro.harness.sweep import sweep_load, sweep_vcs
from repro.network.config import (BASELINE, NetworkConfig, PSEUDO, PSEUDO_B,
                                  PSEUDO_S, PSEUDO_SB)
from repro.network.simulator import build_network
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic

CYCLES = 300
RATE = 0.08


def _fingerprint(topo_name, kx, ky, conc, scheme, pattern, active,
                 vc_policy="dynamic", seed=3, rate=RATE):
    """Simulate once and return every observable stat plus the end cycle."""
    topo = make_topology(topo_name, kx, ky, conc)
    # The reference leg also disables compiled routing tables, so one
    # comparison covers active sets, compiled routing and the bitmask
    # allocator against the fully dynamic exhaustive core.
    net = build_network(topo, vc_policy=vc_policy,
                        config=NetworkConfig(num_vcs=4, buffer_depth=4,
                                             pseudo=scheme),
                        seed=seed, active_set=active,
                        compiled_routing=active)
    traffic = SyntheticTraffic(pattern, topo.num_terminals, rate, 3,
                               seed=seed)
    net.stats.warmup_cycles = CYCLES // 4
    net.run(CYCLES, traffic)
    net.drain(max_cycles=100_000)
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


class TestQuiescence:
    def test_idle_network_fast_forwards(self):
        """With no traffic source, drain() must not iterate cycle by cycle."""
        net = build_network(make_topology("mesh", 4, 4, 1))
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
