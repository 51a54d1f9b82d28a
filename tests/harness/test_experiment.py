"""Tests for the experiment runner."""

import pytest

from repro.evc.topology import EvcMesh
from repro.harness.experiment import (ExperimentConfig, build_network,
                                      clear_cache, run_experiment)
from repro.network.config import PSEUDO_SB
from repro.topology.mesh import ConcentratedMesh


class TestConfig:
    def test_requires_exactly_one_traffic_source(self):
        with pytest.raises(ValueError):
            ExperimentConfig()  # neither benchmark nor pattern
        with pytest.raises(ValueError):
            ExperimentConfig(benchmark="fft", pattern="uniform")

    def test_label(self):
        cfg = ExperimentConfig(pattern="uniform", rate=0.1, scheme=PSEUDO_SB)
        assert "Pseudo+S+B" in cfg.label
        assert "uniform@0.1" in cfg.label

    def test_with_scheme(self):
        cfg = ExperimentConfig(pattern="uniform")
        assert cfg.with_scheme(PSEUDO_SB).scheme is PSEUDO_SB

    def test_hashable_for_caching(self):
        a = ExperimentConfig(pattern="uniform")
        b = ExperimentConfig(pattern="uniform")
        assert a == b and hash(a) == hash(b)


class TestBuild:
    def test_builds_requested_topology(self):
        cfg = ExperimentConfig(topology="cmesh", pattern="uniform")
        net = build_network(cfg)
        assert isinstance(net.topology, ConcentratedMesh)

    def test_evc_topology_uses_evc_routing(self):
        cfg = ExperimentConfig(topology="evc_mesh", kx=4, ky=4,
                               concentration=1, routing="xy",
                               pattern="uniform")
        net = build_network(cfg)
        assert isinstance(net.topology, EvcMesh)
        assert net.routing.name == "evc_xy"

    def test_synthetic_runs_without_mshr_throttle(self):
        cfg = ExperimentConfig(pattern="uniform", mshrs=4)
        net = build_network(cfg)
        assert net.config.mshrs == 0  # only trace replay self-throttles


class TestRun:
    def test_synthetic_result_fields(self):
        cfg = ExperimentConfig(topology="mesh", kx=4, ky=4, concentration=1,
                               pattern="uniform", rate=0.08,
                               synth_cycles=300, synth_warmup=50)
        res = run_experiment(cfg, use_cache=False)
        assert res.packets > 0
        assert res.avg_latency > 0
        assert res.energy_pj > 0
        assert res.config is cfg

    def test_cache_returns_same_result(self):
        clear_cache()
        cfg = ExperimentConfig(topology="mesh", kx=4, ky=4, concentration=1,
                               pattern="uniform", rate=0.05,
                               synth_cycles=200, synth_warmup=40)
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        assert first is second


class TestBackendObservability:
    """Backend stamps, checked vectorized runs, per-lane attribution."""

    BASE = dict(topology="mesh", kx=4, ky=4, concentration=1,
                routing="xy", pattern="uniform", rate=0.15,
                synth_cycles=200, seed=7)

    def test_manifest_carries_resolved_backend(self):
        res = run_experiment(ExperimentConfig(backend="scalar", **self.BASE),
                             use_cache=False)
        assert res.manifest["backend"] == "scalar"
        pytest.importorskip("numpy")
        res = run_experiment(
            ExperimentConfig(backend="vectorized", **self.BASE),
            use_cache=False)
        assert res.manifest["backend"] == "vectorized"

    def test_checked_vectorized_report(self):
        pytest.importorskip("numpy")
        res = run_experiment(
            ExperimentConfig(backend="vectorized", **self.BASE),
            check=True, check_stride=4)
        doc = res.monitor_report
        assert doc["backend"] == "vectorized"
        assert doc["violation_count"] == 0
        inv = doc["monitors"]["vector_invariants"]
        assert inv["violations"] == 0 and inv["stride"] == 4
        profile = doc["phase_profile"]
        assert profile["stepped_cycles"] > 0
        assert set(profile["phases"]) == {"bw", "va_sa", "st_credit",
                                          "pc", "inject"}

    def test_checked_scalar_has_no_phase_profile(self):
        res = run_experiment(ExperimentConfig(backend="scalar", **self.BASE),
                             check=True)
        assert res.monitor_report["backend"] == "scalar"
        assert "phase_profile" not in res.monitor_report

    def test_checked_batch_stamps_lanes(self):
        pytest.importorskip("numpy")
        from repro.harness.experiment import run_batch_experiments
        configs = [ExperimentConfig(backend="auto",
                                    **{**self.BASE, "rate": rate})
                   for rate in (0.05, 0.25)]
        results = run_batch_experiments(configs, check=True, check_stride=2)
        for lane, res in enumerate(results):
            assert res.manifest["backend"] == "batched"
            assert res.manifest["batch_lane"] == lane
            assert res.manifest["batch_lanes"] == 2
            doc = res.monitor_report
            assert doc["backend"] == "batched"
            assert doc["batch_lane"] == lane
            assert doc["violation_count"] == 0
            assert doc["phase_profile"]["stepped_cycles"] > 0
