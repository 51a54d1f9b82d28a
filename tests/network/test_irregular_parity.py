"""Irregular-topology parity: chiplet and kite are bit-identical across
the scalar, vectorized and batched cores, and survive saturation under
the full monitor suite.

Weight-ordered routing compiles to the same tables as every routing, so
the heterogeneous topologies ride the same path as the grid ones; these
suites lock in that none of the three cores forked semantics for
irregular graphs, and that the verified-deadlock-free tables really do
keep traffic moving at saturation (watchdog attached, zero violations).
"""

import pytest

np = pytest.importorskip("numpy")

from repro.harness.experiment import (ExperimentConfig, run_batch_experiments,
                                      run_experiment)
from repro.network.config import BASELINE, PSEUDO_SB, NetworkConfig
from repro.network.simulator import Network
from repro.network.vectorized import BatchNetwork, VectorNetwork
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic

CHIPLET = ("chiplet", 2, 2, 1)
CHIPLET_KW = dict(chiplets=4, chiplet_link_latency=4)
KITE = ("kite", 4, 4, 1)

POINTS = [(CHIPLET, CHIPLET_KW), (KITE, {})]
POINT_IDS = ["chiplet", "kite"]


def _run(cls, topo_args, topo_kw, scheme, rate, cycles, *, seed=7,
         vc_policy="static", num_vcs=4):
    topo = make_topology(*topo_args, **topo_kw)
    net = cls(topo, NetworkConfig(num_vcs=num_vcs, pseudo=scheme),
              routing="weighted", vc_policy=vc_policy, seed=seed)
    traffic = SyntheticTraffic("uniform", topo.num_terminals, rate, 5,
                               seed=seed)
    net.stats.warmup_cycles = cycles // 5
    net.run(cycles, traffic)
    net.drain(max_cycles=500_000)
    net.check_invariants()
    return net


class TestScalarVectorParity:
    @pytest.mark.parametrize("topo_args,topo_kw", POINTS, ids=POINT_IDS)
    @pytest.mark.parametrize("scheme", [BASELINE, PSEUDO_SB],
                             ids=["baseline", "pseudo_sb"])
    @pytest.mark.parametrize("rate", [0.02, 0.20], ids=["low", "sat"])
    def test_fingerprints_match(self, topo_args, topo_kw, scheme, rate):
        scalar = _run(Network, topo_args, topo_kw, scheme, rate, 400)
        vector = _run(VectorNetwork, topo_args, topo_kw, scheme, rate, 400)
        assert scalar.stats.fingerprint() == vector.stats.fingerprint()
        assert scalar.stats.latency_histogram \
            == vector.stats.latency_histogram
        assert scalar.cycle == vector.cycle

    @pytest.mark.parametrize("topo_args,topo_kw", POINTS, ids=POINT_IDS)
    @pytest.mark.parametrize("vc_policy", ["dynamic", "static"])
    def test_vc_policies(self, topo_args, topo_kw, vc_policy):
        scalar = _run(Network, topo_args, topo_kw, PSEUDO_SB, 0.10, 300,
                      vc_policy=vc_policy)
        vector = _run(VectorNetwork, topo_args, topo_kw, PSEUDO_SB, 0.10,
                      300, vc_policy=vc_policy)
        assert scalar.stats.fingerprint() == vector.stats.fingerprint()

    @pytest.mark.parametrize("topo_args,topo_kw,num_vcs", [
        (CHIPLET, CHIPLET_KW, 2), (CHIPLET, CHIPLET_KW, 8),
        (KITE, {}, 1), (KITE, {}, 8),
    ], ids=["chiplet-2vcs", "chiplet-8vcs", "kite-1vc", "kite-8vcs"])
    def test_narrow_and_wide_masks(self, topo_args, topo_kw, num_vcs):
        """The fewest VCs each takes (the chiplet's two deadlock classes
        need one each) and eight; the kite's 7-port routers are the
        widest an irregular topology has."""
        scalar = _run(Network, topo_args, topo_kw, PSEUDO_SB, 0.10, 300,
                      num_vcs=num_vcs)
        vector = _run(VectorNetwork, topo_args, topo_kw, PSEUDO_SB, 0.10,
                      300, num_vcs=num_vcs)
        assert scalar.stats.fingerprint() == vector.stats.fingerprint()
        assert scalar.cycle == vector.cycle


class TestBatchedParity:
    @pytest.mark.parametrize("topo_args,topo_kw", POINTS, ids=POINT_IDS)
    @pytest.mark.parametrize("num_vcs", [2, 8])
    def test_narrow_and_wide_masks(self, topo_args, topo_kw, num_vcs):
        self.test_lanes_match_solo_runs(topo_args, topo_kw, num_vcs)

    @pytest.mark.parametrize("topo_args,topo_kw", POINTS, ids=POINT_IDS)
    def test_lanes_match_solo_runs(self, topo_args, topo_kw, num_vcs=4):
        lanes = ((0.02, 3, 300), (0.20, 9, 240))
        topo = make_topology(*topo_args, **topo_kw)
        net = BatchNetwork(topo, NetworkConfig(num_vcs=num_vcs,
                                               pseudo=PSEUDO_SB),
                           routing="weighted", vc_policy="static",
                           seeds=[seed for _, seed, _ in lanes])
        traffics = [SyntheticTraffic("uniform", topo.num_terminals, rate,
                                     5, seed=seed)
                    for rate, seed, _ in lanes]
        net.run_batch(traffics, [cycles for *_, cycles in lanes],
                      [cycles // 5 for *_, cycles in lanes])
        net.drain(max_cycles=500_000)
        net.check_invariants()
        for lane, (rate, seed, cycles) in enumerate(lanes):
            solo = _run(VectorNetwork, topo_args, topo_kw, PSEUDO_SB, rate,
                        cycles, seed=seed, num_vcs=num_vcs)
            stats = net.lane_stats(lane)
            assert stats.fingerprint() == solo.stats.fingerprint(), lane
            assert stats.latency_histogram \
                == solo.stats.latency_histogram, lane


def _config(topo_args, topo_kw, backend, *, rate, scheme=PSEUDO_SB,
            cycles=400, seed=7):
    name, kx, ky, conc = topo_args
    return ExperimentConfig(
        topology=name, kx=kx, ky=ky, concentration=conc, **topo_kw,
        routing="weighted", vc_policy="static", scheme=scheme,
        pattern="uniform", rate=rate, synth_cycles=cycles,
        synth_warmup=cycles // 4, seed=seed, backend=backend)


class TestHarnessBackends:
    """The figure path: all three backend policies agree per point."""

    @pytest.mark.parametrize("topo_args,topo_kw", POINTS, ids=POINT_IDS)
    def test_three_backends_bit_identical(self, topo_args, topo_kw):
        scalar = run_experiment(
            _config(topo_args, topo_kw, "scalar", rate=0.05),
            use_cache=False)
        vector = run_experiment(
            _config(topo_args, topo_kw, "vectorized", rate=0.05),
            use_cache=False)
        (batched,) = run_batch_experiments(
            [_config(topo_args, topo_kw, "auto", rate=0.05)])
        for field in ("avg_latency", "avg_network_latency", "avg_hops",
                      "reusability", "buffer_bypass_rate", "packets",
                      "flit_hops", "energy_pj", "pc_restored"):
            assert getattr(scalar, field) == getattr(vector, field), field
            assert getattr(scalar, field) == getattr(batched, field), field


class TestSaturationWatchdog:
    """Saturation runs with the full monitor suite (progress watchdog
    included): the verified tables must keep delivering — zero
    violations, packets actually drained."""

    @pytest.mark.parametrize("topo_args,topo_kw", POINTS, ids=POINT_IDS)
    @pytest.mark.parametrize("scheme", [BASELINE, PSEUDO_SB],
                             ids=["baseline", "pseudo_sb"])
    def test_checked_saturation_run(self, topo_args, topo_kw, scheme):
        result = run_experiment(
            _config(topo_args, topo_kw, "scalar", rate=0.40, scheme=scheme,
                    cycles=600),
            check=True)
        assert result.monitor_report["violation_count"] == 0
        assert result.packets > 0
