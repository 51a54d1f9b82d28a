"""The bench gate's checked runs and the harness/CLI --check plumbing."""

import json

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.parallel import run_experiments
from repro.instrument import identity_check
from repro.instrument.overhead import GATE_RATES


def _cfg(**overrides):
    defaults = dict(topology="mesh", kx=4, ky=4, concentration=1,
                    routing="xy", pattern="uniform", rate=0.15,
                    synth_cycles=200, synth_warmup=50, seed=2)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestSelfCheck:
    """The gate's checked runs: the 8x8 mesh at low load and saturation
    with the monitor suite, tracer and series attached, violation-free
    and bit-identical to the bare runs."""

    def test_reduced_scale_passes(self):
        report = identity_check(cycles=200)
        assert report["stats_identical"] is True
        assert [run["rate"] for run in report["runs"]] == list(GATE_RATES)
        for run in report["runs"]:
            doc = run["metrics"]
            assert doc["violation_count"] == 0
            assert set(doc["monitors"]) == {"conservation", "credits",
                                            "pseudo_circuit", "watchdog"}
            assert doc["run"]["ejected_packets"] > 0

    @pytest.mark.slow
    def test_acceptance_scale_passes(self):
        report = identity_check(cycles=600)
        assert all(run["metrics"]["violation_count"] == 0
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
        """``--out`` writes the gate's metrics documents beside the
        report, one per checked run, and none into the report."""
        from repro.harness.bench import run_bench
        out = tmp_path / "bench.json"
        report = run_bench(cycles=120, out_path=str(out), show=False)
        gate = report["overhead_gate"]
        assert gate["stats_identical"] is True
        assert all("metrics" not in run for run in gate["runs"])
        doc = json.loads((tmp_path / "bench.metrics.json").read_text())
        assert doc["schema"] == "repro.metrics-set/1"
        assert doc["violation_count"] == 0
        cores = ["scalar"] + (
            [] if "refused" in gate["vectorized_overhead"] else ["vectorized"])
        assert [run["label"] for run in doc["runs"]] == [
            f"{core} rate {rate:g}" for core in cores for rate in GATE_RATES]
        assert all(run["schema"] == "repro.metrics/1" for run in doc["runs"])
