"""The monitored self-check and the harness/CLI --check plumbing."""

import json

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.parallel import run_experiments
from repro.monitor import self_check


def _cfg(**overrides):
    defaults = dict(topology="mesh", kx=4, ky=4, concentration=1,
                    routing="xy", pattern="uniform", rate=0.15,
                    synth_cycles=200, synth_warmup=50, seed=2)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestSelfCheck:
    def test_reduced_scale_passes(self):
        report = self_check(cycles=200)
        assert report["schema"] == "repro.self-check/1"
        assert len(report["runs"]) == 2
        for run in report["runs"]:
            assert run["violation_count"] == 0
            assert run["stats_identical"] is True
            assert run["run"]["ejected_packets"] > 0

    @pytest.mark.slow
    def test_acceptance_scale_passes(self):
        """ISSUE acceptance: 8x8 mesh at low load and saturation, all
        monitors attached, violation-free and bit-identical."""
        report = self_check(cycles=600)
        assert all(run["violation_count"] == 0
                   for run in report["runs"])


class TestHarnessCheck:
    def test_run_experiment_check_attaches_report(self):
        res = run_experiment(_cfg(), check=True)
        doc = res.monitor_report
        assert doc is not None and doc["violation_count"] == 0
        assert set(doc["monitors"]) == {"conservation", "credits",
                                        "pseudo_circuit", "watchdog"}

    def test_checked_run_matches_unchecked(self):
        """Monitors observe, never perturb: metrics identical."""
        bare = run_experiment(_cfg(), use_cache=False)
        checked = run_experiment(_cfg(), check=True)
        assert checked == bare  # Result equality ignores the reports

    def test_checked_runs_bypass_the_cache(self):
        first = run_experiment(_cfg(seed=5))  # populates the memo
        again = run_experiment(_cfg(seed=5), check=True)
        assert first.monitor_report is None
        assert again.monitor_report is not None

    def test_run_experiments_check_inline(self):
        results = run_experiments([_cfg(seed=8), _cfg(seed=9)],
                                  max_workers=1, check=True)
        assert all(r.monitor_report is not None for r in results)
        assert all(r.monitor_report["violation_count"] == 0
                   for r in results)


class TestBenchCheck:
    def test_bench_check_writes_metrics_doc(self, tmp_path):
        from repro.harness.bench import run_bench
        out = tmp_path / "bench.json"
        report = run_bench(cycles=120, out_path=str(out), show=False,
                           check=True)
        assert report["self_check"]["violations"] == 0
        assert report["self_check"]["stats_identical"] is True
        doc = json.loads((tmp_path / "bench.metrics.json").read_text())
        assert doc["schema"] == "repro.self-check/1"
