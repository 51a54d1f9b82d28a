"""Edge-case tests for the process-parallel sweep executor.

Covers the paths an ordinary sweep never exercises: the serial fallback
(``max_workers=1`` must not touch the process pool at all), chunk sizes
larger than the point count, and exception surfacing — a failing point must
come back as a ``SweepPointError`` naming that point's parameters, whether
it died in a worker process or inline.
"""

import os

import pytest

from repro.harness import traces
from repro.harness.experiment import (ExperimentConfig, clear_cache,
                                      run_experiment)
from repro.harness.parallel import SweepPointError, run_experiments


def _point(**overrides):
    base = dict(topology="mesh", kx=2, ky=2, concentration=1, routing="xy",
                pattern="uniform", rate=0.05, synth_cycles=120,
                synth_warmup=20)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class _PoolBomb:
    """Stand-in ProcessPoolExecutor that fails the test if constructed."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("serial fallback must not create a pool")


class TestSerialFallback:
    def test_single_worker_never_creates_a_pool(self, monkeypatch):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            _PoolBomb)
        points = [_point(seed=s) for s in (1, 2, 3)]
        results = run_experiments(points, max_workers=1)
        assert [r.config for r in results] == points
        assert all(r.packets > 0 for r in results)
        # The inline run populated the memo exactly like a pooled run would.
        for point, result in zip(points, results):
            assert run_experiment(point) is result

    def test_single_uncached_point_runs_inline(self, monkeypatch):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            _PoolBomb)
        cached_point = _point(seed=4)
        run_experiment(cached_point)  # warm the memo
        fresh_point = _point(seed=5)
        results = run_experiments([cached_point, fresh_point], max_workers=8)
        assert [r.config for r in results] == [cached_point, fresh_point]


class TestChunking:
    def test_chunk_size_larger_than_point_count(self):
        points = [_point(seed=s) for s in (1, 2, 3)]
        serial = run_experiments(points, max_workers=1)
        clear_cache()
        pooled = run_experiments(points, max_workers=2, chunk_size=50)
        assert pooled == serial  # Result is a frozen dataclass: field-equal

    def test_oversized_chunk_still_caches_results(self):
        points = [_point(seed=s) for s in (6, 7)]
        results = run_experiments(points, max_workers=2, chunk_size=50)
        for point, result in zip(points, results):
            assert run_experiment(point) == result


class TestTraceExtraction:
    def test_the_parent_extracts_each_trace_before_the_pool_forks(
            self, monkeypatch, tmp_path):
        """Forked workers inherit the parent's trace cache: a pooled
        sweep over two benchmarks leaves both traces in the parent and
        extracts none in a worker."""
        monkeypatch.setattr(traces, "_extractions", {})
        parent, real = os.getpid(), traces.extract
        log = tmp_path / "worker-extractions"

        def extract(*key):
            if os.getpid() != parent and key not in traces._extractions:
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{key}\n")
            return real(*key)

        monkeypatch.setattr(traces, "extract", extract)
        points = [ExperimentConfig(benchmark=bench, trace_cycles=100,
                                   trace_warmup=50, seed=seed,
                                   backend="scalar")
                  for bench in ("radix", "fft") for seed in (1, 2)]
        results = run_experiments(points, max_workers=2, chunk_size=1)
        assert [r.config for r in results] == points
        assert set(traces._extractions) == {
            (bench, 100, 50, seed)
            for bench in ("radix", "fft") for seed in (1, 2)}
        assert not log.exists()


class TestExceptionSurfacing:
    def test_worker_failure_names_the_failing_point(self):
        good = [_point(seed=s) for s in (1, 2)]
        bad = _point(topology="never-heard-of-it", seed=3)
        with pytest.raises(SweepPointError) as excinfo:
            run_experiments([*good, bad], max_workers=2, chunk_size=1)
        err = excinfo.value
        # The message carries the failing point's parameters, not just the
        # underlying ValueError.
        assert "never-heard-of-it" in err.point
        assert bad.label in err.point
        assert "ValueError" in err.cause
        assert "never-heard-of-it" in str(err)

    def test_inline_failure_chains_the_original_exception(self):
        bad = _point(topology="never-heard-of-it")
        with pytest.raises(SweepPointError) as excinfo:
            run_experiments([bad], max_workers=1)
        err = excinfo.value
        assert bad.label in err.point
        assert isinstance(err.__cause__, ValueError)

    def test_sweep_point_error_survives_pickling(self):
        import pickle

        err = SweepPointError("mesh/xy/...", "ValueError: boom")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.point == err.point
        assert clone.cause == err.cause
        assert str(clone) == str(err)

    def test_sweep_point_error_embeds_manifest(self):
        import pickle

        bad = _point(topology="never-heard-of-it")
        with pytest.raises(SweepPointError) as excinfo:
            run_experiments([bad], max_workers=1)
        err = excinfo.value
        # The failing point's run manifest rides along: the config hash,
        # seed and commit needed to reproduce the failure are in the
        # message, and the manifest survives the worker pickle round-trip.
        assert err.manifest is not None
        assert err.manifest["config"]["topology"] == "never-heard-of-it"
        assert err.manifest["seed"] == bad.seed
        assert "run manifest:" in str(err)
        assert err.manifest["config_sha256"] in str(err)
        clone = pickle.loads(pickle.dumps(err))
        assert clone.manifest == err.manifest
        assert str(clone) == str(err)

    def test_sweep_point_error_manifest_is_optional(self):
        err = SweepPointError("p", "c")
        assert err.manifest is None
        assert "run manifest" not in str(err)
