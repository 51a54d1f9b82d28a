"""Batched-lane parity: every lane is bit-identical to its solo run.

The batched core steps S independent simulations as one lane-replicated
chip; it is a throughput backend, never a semantic fork. Each lane of a
mixed-rate / mixed-seed / mixed-pattern batch must reproduce the exact
``NetworkStats`` fingerprint and latency histogram of a solo run of the
same point — checked against *both* reference backends (the scalar
object core and the solo vectorized core) — and a Hypothesis property
test re-checks the invariant over random batch compositions.
"""

from functools import partial
from types import SimpleNamespace

import pytest

np = pytest.importorskip("numpy")

from repro.network.config import BASELINE, PSEUDO, PSEUDO_SB, NetworkConfig
from repro.network.simulator import Network
from repro.network.vectorized import BatchNetwork, VectorNetwork
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic

#: (pattern, rate, seed, cycles) per lane: a low-load point, a saturated
#: point, and two non-uniform patterns, all with distinct seeds and
#: cycle budgets — nothing about the lanes is allowed to line up.
MIXED_LANES = (
    ("uniform", 0.02, 1, 300),
    ("uniform", 0.30, 2, 300),
    ("transpose", 0.10, 3, 240),
    ("bitcomp", 0.05, 4, 360),
)


def lane_sink(net, lane):
    """What a hand-ticked source of ``lane`` injects into."""
    return SimpleNamespace(inject=partial(net.inject, lane=lane))


def _solo_stats(cls, topo_args, scheme, lane, *, routing="xy",
                vc_policy="dynamic", num_vcs=4):
    pattern, rate, seed, cycles = lane
    topo = make_topology(*topo_args)
    net = cls(topo, NetworkConfig(num_vcs=num_vcs, pseudo=scheme),
              routing=routing, vc_policy=vc_policy, seed=seed)
    traffic = SyntheticTraffic(pattern, topo.num_terminals, rate, 5,
                               seed=seed)
    net.stats.warmup_cycles = cycles // 5
    net.run(cycles, traffic)
    net.drain(max_cycles=500_000)
    net.check_invariants()
    return net.stats


def _batched_stats(topo_args, scheme, lanes, *, routing="xy",
                   vc_policy="dynamic", num_vcs=4):
    topo = make_topology(*topo_args)
    net = BatchNetwork(topo, NetworkConfig(num_vcs=num_vcs, pseudo=scheme),
                       routing=routing, vc_policy=vc_policy,
                       seeds=[seed for _, _, seed, _ in lanes])
    traffics = [SyntheticTraffic(pattern, topo.num_terminals, rate, 5,
                                 seed=seed)
                for pattern, rate, seed, _ in lanes]
    net.run_batch(traffics, [cycles for *_, cycles in lanes],
                  warmups=[cycles // 5 for *_, cycles in lanes])
    net.drain(max_cycles=500_000)
    net.check_invariants()
    return [net.lane_stats(lane) for lane in range(len(lanes))]


def assert_lane_parity(reference_cls, topo_args, scheme, lanes, **kw):
    batched = _batched_stats(topo_args, scheme, lanes, **kw)
    for lane, stats in zip(lanes, batched):
        solo = _solo_stats(reference_cls, topo_args, scheme, lane, **kw)
        assert stats.fingerprint() == solo.fingerprint(), lane
        assert stats.latency_histogram == solo.latency_histogram, lane
        assert stats.pc_terminations == solo.pc_terminations, lane


class TestMixedLanes:
    """The mixed-composition batch against both reference backends."""

    @pytest.mark.parametrize("scheme", [BASELINE, PSEUDO_SB],
                             ids=["baseline", "pseudo_sb"])
    @pytest.mark.parametrize("vc_policy", ["dynamic", "static"])
    def test_lanes_match_scalar(self, scheme, vc_policy):
        assert_lane_parity(Network, ("mesh", 4, 4, 1), scheme, MIXED_LANES,
                           vc_policy=vc_policy)

    @pytest.mark.parametrize("scheme", [BASELINE, PSEUDO_SB],
                             ids=["baseline", "pseudo_sb"])
    @pytest.mark.parametrize("vc_policy", ["dynamic", "static"])
    def test_lanes_match_vectorized(self, scheme, vc_policy):
        assert_lane_parity(VectorNetwork, ("mesh", 4, 4, 1), scheme,
                           MIXED_LANES, vc_policy=vc_policy)

    def test_mesh8x8_canonical_rates(self):
        lanes = (("uniform", 0.02, 7, 300), ("uniform", 0.30, 8, 300))
        assert_lane_parity(VectorNetwork, ("mesh", 8, 8, 1), PSEUDO_SB,
                           lanes)

    @pytest.mark.parametrize("routing", ["xy", "yx", "o1turn"])
    def test_routings(self, routing):
        lanes = (("uniform", 0.05, 3, 240), ("uniform", 0.25, 9, 240))
        assert_lane_parity(VectorNetwork, ("mesh", 4, 4, 1), PSEUDO_SB,
                           lanes, routing=routing)

    def test_concentrated_topology(self):
        lanes = (("uniform", 0.05, 1, 240), ("uniform", 0.20, 2, 240))
        assert_lane_parity(VectorNetwork, ("cmesh", 2, 2, 4), PSEUDO_SB,
                           lanes)

    @pytest.mark.parametrize("topo_args", [("mesh", 4, 4, 1),
                                           ("fbfly", 4, 4, 4)],
                             ids=["mesh4x4", "fbfly4x4-radix10"])
    @pytest.mark.parametrize("num_vcs", [1, 8])
    def test_narrow_and_wide_masks(self, topo_args, num_vcs):
        """One VC a port and eight, 5-port and 10-port routers: the
        kernel's VC and port masks at other widths than a mesh's 4 / 5."""
        lanes = (("uniform", 0.03, 1, 240), ("uniform", 0.04 * num_vcs, 2,
                                             240))
        assert_lane_parity(Network, topo_args, PSEUDO_SB, lanes,
                           num_vcs=num_vcs)

    def test_hotspot_and_a_non_power_of_two_chip(self):
        """12 terminals: ``randrange`` rejects some draws, and each lane
        keeps its own generator through them."""
        lanes = (("hotspot", 0.10, 5, 240), ("uniform", 0.20, 6, 300),
                 ("tornado", 0.05, 7, 200))
        assert_lane_parity(Network, ("mesh", 4, 3, 1), PSEUDO_SB, lanes)


class TestDegenerateBatches:
    def test_single_lane_batch_matches_solo(self):
        lane = ("uniform", 0.15, 5, 300)
        batched, = _batched_stats(("mesh", 4, 4, 1), PSEUDO_SB, (lane,))
        solo = _solo_stats(VectorNetwork, ("mesh", 4, 4, 1), PSEUDO_SB,
                           lane)
        assert batched.fingerprint() == solo.fingerprint()

    def test_run_is_refused(self):
        topo = make_topology("mesh", 2, 2, 1)
        net = BatchNetwork(topo, NetworkConfig(pseudo=BASELINE),
                           seeds=(1, 2))
        with pytest.raises(TypeError, match="run_batch"):
            net.run(10)

    def test_lanes_are_asked_for_injections_only_on_an_empty_chip(self):
        """``run_batch`` can only skip cycles while nothing is buffered,
        queued or sending, so that is the only time it asks."""
        topo = make_topology("mesh", 4, 4, 1)
        net = BatchNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                           seeds=(1, 2))
        asked = []

        class Source(SyntheticTraffic):
            def next_injection_cycle(self, cycle, lookahead=4096):
                asked.append(net._busy())
                return super().next_injection_cycle(cycle, lookahead)

        net.run_batch([Source("uniform", topo.num_terminals, 0.02, 5,
                              seed=seed) for seed in (1, 2)], [300, 300])
        assert asked and set(asked) == {False}
        assert net.cycle == 300

    def test_lane_budget_mismatch_rejected(self):
        topo = make_topology("mesh", 2, 2, 1)
        net = BatchNetwork(topo, NetworkConfig(pseudo=BASELINE),
                           seeds=(1, 2))
        traffic = SyntheticTraffic("uniform", topo.num_terminals, 0.1, 5)
        with pytest.raises(ValueError, match="per lane"):
            net.run_batch([traffic], [10, 10])


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_lane = st.tuples(
    st.sampled_from(["uniform", "transpose", "bitcomp", "tornado"]),
    st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.5]),
    st.integers(0, 999),
    st.sampled_from([60, 90, 120]),
)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lanes=st.lists(_lane, min_size=1, max_size=4),
       scheme=st.sampled_from([BASELINE, PSEUDO, PSEUDO_SB]),
       vc_policy=st.sampled_from(["dynamic", "static"]))
def test_random_batch_compositions_match_solo(lanes, scheme, vc_policy):
    """Any composition of lanes — including duplicated points, rate-0
    lanes and unequal cycle budgets — is bit-identical per lane to the
    solo vectorized runs of the same points."""
    assert_lane_parity(VectorNetwork, ("mesh", 4, 4, 1), scheme, lanes,
                       vc_policy=vc_policy)
