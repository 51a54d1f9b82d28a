"""Series parity: ``TimeSeriesProbe`` rows are the same on every core.

Bound to an array core the probe counts the batched ``vec_*`` hooks with
numpy scatters; it is only trustworthy if those reproduce the rows its
scalar per-event path records exactly — same window boundaries, same
per-router occupancy snapshots, same activity counts — so every exporter
(CSV, JSON, heatmap) downstream sees identical data whichever core ran.
This suite pins that contract on the canonical bench workloads, checks
that one probe instance serves scalar and vector networks in turn,
per-lane batched views, and the zero-overhead gate on the array core
(cold by default, instrumented runs bit-identical to bare runs).
"""

import pytest

np = pytest.importorskip("numpy")

from repro.instrument import CompositeProbe, FlitTracer, TimeSeriesProbe
from repro.network.backend import BackendUnsupportedError
from repro.network.config import BASELINE, PSEUDO_SB, NetworkConfig
from repro.network.simulator import Network
from repro.network.vectorized import BatchNetwork, VectorNetwork
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic

WINDOW = 32


def _run(cls, scheme, rate, cycles, probe, *, topo_args=("mesh", 8, 8, 1),
         pattern="uniform", seed=7, **net_kw):
    topo = make_topology(*topo_args)
    net = cls(topo, NetworkConfig(pseudo=scheme), routing="xy",
              vc_policy="dynamic", seed=seed, **net_kw)
    if probe is not None:
        net.bind_probe(probe)
    traffic = SyntheticTraffic(pattern, topo.num_terminals, rate, 5,
                               seed=seed)
    net.stats.warmup_cycles = cycles // 5
    net.run(cycles, traffic)
    net.drain(max_cycles=500_000)
    net.check_invariants()
    if probe is not None:
        probe.flush()
    return net


class TestRowParity:
    """Scalar core vs array core on the canonical 8x8 workloads."""

    @pytest.mark.parametrize("scheme,rate", [
        (BASELINE, 0.02), (PSEUDO_SB, 0.02),
        (BASELINE, 0.30), (PSEUDO_SB, 0.30),
    ], ids=["low-baseline", "low-pseudo_sb",
            "sat-baseline", "sat-pseudo_sb"])
    def test_rows_and_heatmap_identical(self, scheme, rate):
        scalar_probe = TimeSeriesProbe(window=WINDOW)
        vector_probe = TimeSeriesProbe(window=WINDOW)
        scalar = _run(Network, scheme, rate, 400, scalar_probe)
        vector = _run(VectorNetwork, scheme, rate, 400, vector_probe)
        assert vector_probe.samples == scalar_probe.samples
        assert vector_probe.heatmap() == scalar_probe.heatmap()
        # Instrumentation is read-only: stats stay bit-identical too.
        assert scalar.stats.fingerprint() == vector.stats.fingerprint()

    def test_dual_bind_scalar_fallback(self):
        """One probe instance serves the scalar core, then an array core,
        then the scalar core again (an ``auto`` run may land on either):
        each bind starts from that core's own accumulators."""
        reference = TimeSeriesProbe(window=WINDOW)
        _run(Network, PSEUDO_SB, 0.20, 300, reference)
        dual = TimeSeriesProbe(window=WINDOW)
        for cls in (Network, VectorNetwork, Network):
            dual.samples.clear()
            _run(cls, PSEUDO_SB, 0.20, 300, dual)
            assert dual.samples == reference.samples, cls
            assert dual.heatmap() == reference.heatmap()


class TestComposite:
    """A ``CompositeProbe`` is vector-aware exactly when every probe it
    holds is, and fans the ``vec_*`` hooks out to each."""

    def test_two_series_probes_record_what_a_lone_one_records(self):
        lone = TimeSeriesProbe(window=WINDOW)
        pair = TimeSeriesProbe(window=WINDOW), TimeSeriesProbe(window=WINDOW)
        composite = CompositeProbe(*pair)
        assert composite.vector_hooks
        for probe in (lone, composite):
            topo = make_topology("mesh", 4, 4, 1)
            net = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                                routing="xy", seed=7, probe=probe)
            net.run(300, SyntheticTraffic("uniform", 16, 0.2, 5, seed=7))
            net.drain(max_cycles=500_000)
        lone.flush()
        for probe in pair:
            probe.flush()
            assert probe.samples and probe.samples == lone.samples
            assert probe.heatmap() == lone.heatmap()

    def test_a_composite_holding_a_tracer_is_refused_by_its_name(self):
        composite = CompositeProbe(TimeSeriesProbe(window=WINDOW),
                                   FlitTracer())
        assert not composite.vector_hooks
        net = VectorNetwork(make_topology("mesh", 4, 4, 1), NetworkConfig(),
                            routing="xy")
        with pytest.raises(BackendUnsupportedError,
                           match="cannot drive FlitTracer: per-flit"):
            net.bind_probe(composite)


class TestLaneView:
    """Per-lane batched views match solo runs of the same point."""

    LANES = ((0.05, 3), (0.30, 11))

    def test_lane_rows_match_solo(self):
        topo = make_topology("mesh", 4, 4, 1)
        batch_probe = TimeSeriesProbe(window=WINDOW)
        net = BatchNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                           routing="xy", vc_policy="dynamic",
                           seeds=[seed for _, seed in self.LANES])
        net.bind_probe(batch_probe)
        traffics = [SyntheticTraffic("uniform", topo.num_terminals, rate,
                                     5, seed=seed)
                    for rate, seed in self.LANES]
        net.run_batch(traffics, [300] * len(self.LANES),
                      warmups=[60] * len(self.LANES))
        net.drain(max_cycles=500_000)
        net.check_invariants()
        batch_probe.flush()

        for lane, (rate, seed) in enumerate(self.LANES):
            solo_probe = TimeSeriesProbe(window=WINDOW)
            _run(VectorNetwork, PSEUDO_SB, rate, 300, solo_probe,
                 topo_args=("mesh", 4, 4, 1), seed=seed)
            view = batch_probe.lane_view(lane)
            solo = list(solo_probe.samples)
            got = list(view.samples)
            assert len(got) >= len(solo)
            # The shared chip drains to its slowest lane, so the view
            # may carry extra all-idle trailing windows and a later
            # final ``end``; every count and occupancy must still match.
            for idx, ref in enumerate(solo):
                row = got[idx]
                assert row["start"] == ref["start"]
                if idx < len(solo) - 1:
                    assert row["end"] == ref["end"]
                for key in ref:
                    if key not in ("start", "end"):
                        assert row[key] == ref[key], (idx, key)
            idle = {key: [0] * view._num for key in solo[0]
                    if key not in ("start", "end", "occupancy")}
            for row in got[len(solo):]:
                for key, zeros in idle.items():
                    assert row[key] == zeros
                assert row["occupancy"] == [0] * view._num
            assert view.heatmap()["grid"] is not None

    def test_lane_out_of_range(self):
        topo = make_topology("mesh", 4, 4, 1)
        probe = TimeSeriesProbe(window=WINDOW)
        net = BatchNetwork(topo, NetworkConfig(pseudo=BASELINE),
                           routing="xy", vc_policy="dynamic", seeds=[1, 2])
        net.bind_probe(probe)
        with pytest.raises(ValueError, match="out of range"):
            probe.lane_view(2)


class TestOverheadGate:
    def test_default_network_is_cold(self):
        from repro.instrument.overhead import assert_probes_cold
        topo = make_topology("mesh", 4, 4, 1)
        net = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                            routing="xy", vc_policy="dynamic", seed=7)
        assert_probes_cold(net)

    def test_instrumented_network_is_hot(self):
        from repro.instrument.overhead import assert_probes_cold
        topo = make_topology("mesh", 4, 4, 1)
        net = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                            routing="xy", vc_policy="dynamic", seed=7)
        net.bind_probe(TimeSeriesProbe(window=WINDOW))
        with pytest.raises(AssertionError):
            assert_probes_cold(net)

    @pytest.mark.parametrize("switch", ["events_on", "profile_on"])
    def test_a_kernel_switch_left_on_is_hot(self, switch):
        """The two ``Chip`` flags that make the compiled cycle record
        events or read the clock are heat too, with nothing attached."""
        from repro.instrument.overhead import (OverheadGateError,
                                               assert_probes_cold)
        topo = make_topology("mesh", 4, 4, 1)
        net = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                            routing="xy", vc_policy="dynamic", seed=7)
        setattr(net._kernel.chip, switch, True)
        with pytest.raises(OverheadGateError, match="kernel"):
            assert_probes_cold(net)

    def test_identity_check(self):
        """The full stack (series probe + strict checker + profiler)
        must leave the stats fingerprint bit-identical to a bare run."""
        from repro.instrument import identity_check
        report = identity_check(cycles=300, backend="vectorized")
        assert report["stats_identical"]
        for run in report["runs"]:
            doc = run["metrics"]
            assert run["series_windows"] > 0
            assert doc["monitors"]["vector_invariants"]["sweeps"] > 0
            assert doc["phase_profile"]["stepped_cycles"] > 0
