"""Batched execution through the harness: grouping, parity, fallback.

``run_batch_experiments`` must return, per lane, the exact ``Result``
that ``run_experiment`` produces for the same point; the scheduler's
batching tier must group only compatible points, keep one store/journal
entry per point, and fall back to solo execution when a batch fails.
"""

import dataclasses

import pytest

np = pytest.importorskip("numpy")

from repro.harness import parallel
from repro.harness.experiment import (ExperimentConfig, batch_key,
                                      run_batch_experiments, run_experiment)
from repro.harness.parallel import _group_units, run_experiments
from repro.store import SweepJournal, store_key


def _cfg(pattern="uniform", rate=0.1, seed=1, backend="batched",
         **overrides):
    overrides.setdefault("topology", "mesh")
    overrides.setdefault("kx", 4)
    overrides.setdefault("ky", 4)
    overrides.setdefault("concentration", 1)
    overrides.setdefault("routing", "xy")
    overrides.setdefault("synth_cycles", 200)
    overrides.setdefault("synth_warmup", 40)
    return ExperimentConfig(pattern=pattern, rate=rate, seed=seed,
                            backend=backend, **overrides)


class TestBatchKey:
    def test_compatible_points_share_a_key(self):
        a = _cfg(rate=0.02, seed=1)
        b = _cfg(pattern="transpose", rate=0.3, seed=9,
                 synth_cycles=400, synth_warmup=80)
        assert batch_key(a) == batch_key(b) is not None

    def test_chip_shape_splits_the_key(self):
        assert batch_key(_cfg()) != batch_key(_cfg(num_vcs=8))
        assert batch_key(_cfg()) != batch_key(_cfg(kx=2, ky=2))
        assert batch_key(_cfg()) != batch_key(_cfg(vc_policy="static"))

    def test_unbatchable_points_have_no_key(self):
        assert batch_key(_cfg(backend="scalar")) is None
        assert batch_key(_cfg(backend="vectorized")) is None
        trace = ExperimentConfig(benchmark="bodytrack", backend="batched")
        assert batch_key(trace) is None

    def test_auto_points_group(self):
        assert batch_key(_cfg(backend="auto")) is not None


class TestRunBatchExperiments:
    def test_lanes_equal_solo_results(self):
        cfgs = [_cfg(rate=0.02, seed=11),
                _cfg(rate=0.30, seed=12),
                _cfg(pattern="transpose", rate=0.10, seed=13,
                     synth_cycles=160, synth_warmup=40)]
        lanes = run_batch_experiments(cfgs)
        for cfg, lane in zip(cfgs, lanes):
            assert lane == run_experiment(cfg, use_cache=False)

    def test_evc_lanes_equal_solo_results(self):
        cfgs = [_cfg(topology="evc_mesh", rate=rate, seed=seed)
                for rate, seed in ((0.05, 14), (0.30, 15))]
        assert batch_key(cfgs[0]) == batch_key(cfgs[1]) is not None
        lanes = run_batch_experiments(cfgs)
        for cfg, lane in zip(cfgs, lanes):
            assert lane.manifest["backend"] == "batched"
            assert lane == run_experiment(cfg, use_cache=False)

    def test_mixed_keys_rejected(self):
        with pytest.raises(ValueError):
            run_batch_experiments([_cfg(), _cfg(num_vcs=8)])


class TestGrouping:
    def test_units_respect_keys_and_size(self):
        cfgs = [_cfg(seed=s) for s in range(5)]
        cfgs.insert(2, _cfg(seed=99, backend="scalar"))
        units = _group_units(list(enumerate(cfgs)), batch_size=3)
        shapes = [[idx for idx, _ in unit] for unit in units]
        assert shapes == [[0, 1, 3], [2], [4, 5]]

    def test_batch_size_one_disables_grouping(self):
        units = _group_units(list(enumerate([_cfg(seed=s)
                                             for s in range(3)])), 1)
        assert [len(unit) for unit in units] == [1, 1, 1]


class TestSchedulerTier:
    def test_batched_sweep_bit_identical_with_per_point_journal(
            self, tmp_path):
        cfgs = [_cfg(rate=rate, seed=seed)
                for rate, seed in [(0.02, 21), (0.30, 22), (0.10, 23)]]
        cfgs.append(_cfg(seed=24, backend="scalar"))
        journal_path = tmp_path / "sweep.journal"
        got = run_experiments(cfgs, max_workers=1,
                              journal=str(journal_path))
        for cfg, result in zip(cfgs, got):
            assert result == run_experiment(cfg, use_cache=False)
        journaled = SweepJournal(str(journal_path)).load()
        assert set(journaled) == {store_key(cfg) for cfg in cfgs}

    def test_failed_batch_falls_back_to_solo(self, monkeypatch):
        def boom(cfgs, **kwargs):
            raise RuntimeError("batch died")
        monkeypatch.setattr(parallel, "run_batch_experiments", boom)
        cfgs = [_cfg(rate=0.05, seed=31), _cfg(rate=0.15, seed=32)]
        got = run_experiments(cfgs, max_workers=1)
        for cfg, result in zip(cfgs, got):
            assert result == run_experiment(cfg, use_cache=False)

    def test_check_runs_are_never_batched(self):
        cfgs = [dataclasses.replace(_cfg(seed=s, backend="scalar"))
                for s in (41, 42)]
        units = _group_units(list(enumerate(cfgs)), 16)
        assert all(len(unit) == 1 for unit in units)
        got = run_experiments(cfgs, max_workers=1, check=True)
        assert all(r.monitor_report["violation_count"] == 0 for r in got)
