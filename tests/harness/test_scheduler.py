"""Fault-tolerance tests for the resumable sweep scheduler.

Covers the resilience paths of ``run_experiments`` (``DESIGN.md`` §11):
deterministic retry/backoff on a fake clock, pool breakage and stall
degradation to serial execution, journal-backed resume, write-through to
the result store, and the ``check=True`` cache bypass.
"""

import pytest

import repro.harness.parallel as parallel
from repro.harness.experiment import (ExperimentConfig, clear_cache,
                                      run_experiment)
from repro.harness.parallel import (SweepPointError, backoff_delay,
                                    run_experiments)
from repro.store import ResultStore, SweepJournal, store_key


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


class _FakeClock:
    """Injectable ``sleep`` that records the schedule instead of waiting."""

    def __init__(self):
        self.waits = []

    def __call__(self, seconds):
        self.waits.append(seconds)


class TestBackoff:
    def test_schedule_is_exponential_and_capped(self):
        delays = [backoff_delay(k, base=0.5, cap=3.0) for k in (1, 2, 3, 4)]
        assert delays == [0.5, 1.0, 2.0, 3.0]

    def test_schedule_is_deterministic(self):
        assert ([backoff_delay(k, 0.25, 60.0) for k in range(1, 6)]
                == [backoff_delay(k, 0.25, 60.0) for k in range(1, 6)])


class TestRetries:
    def test_flaky_point_succeeds_after_retries(self, monkeypatch):
        clock = _FakeClock()
        real = parallel.run_experiment
        calls = {"n": 0}

        def flaky(cfg, check=False, **kwargs):
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient worker hiccup")
            return real(cfg, check=check, **kwargs)

        monkeypatch.setattr(parallel, "run_experiment", flaky)
        results = run_experiments([_point(seed=21)], max_workers=1,
                                  retries=3, backoff_base=0.5,
                                  sleep=clock)
        assert results[0].packets > 0
        assert calls["n"] == 3
        assert clock.waits == [0.5, 1.0]  # deterministic, no jitter

    def test_exhausted_retries_carry_the_full_history(self, monkeypatch):
        clock = _FakeClock()

        def always_broken(cfg, check=False, **kwargs):
            raise OSError("permanently broken")

        monkeypatch.setattr(parallel, "run_experiment", always_broken)
        with pytest.raises(SweepPointError) as excinfo:
            run_experiments([_point(seed=22)], max_workers=1, retries=2,
                            backoff_base=1.0, backoff_cap=30.0,
                            sleep=clock)
        err = excinfo.value
        assert err.attempts == 3
        assert err.backoff_s == [1.0, 2.0]
        assert clock.waits == [1.0, 2.0]
        assert "after 3 attempts" in str(err)
        assert "backoff: 1s, 2s" in str(err)
        assert isinstance(err.__cause__, OSError)

    def test_zero_retries_raises_the_original_error(self, monkeypatch):
        def broken(cfg, check=False, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(parallel, "run_experiment", broken)
        with pytest.raises(SweepPointError) as excinfo:
            run_experiments([_point(seed=23)], max_workers=1)
        err = excinfo.value
        assert err.attempts == 1
        assert err.backoff_s == []
        assert isinstance(err.__cause__, ValueError)

    def test_error_with_history_survives_pickling(self):
        import pickle

        err = SweepPointError("p", "c", attempts=3, backoff_s=[0.5, 1.0])
        clone = pickle.loads(pickle.dumps(err))
        assert clone.attempts == 3
        assert clone.backoff_s == [0.5, 1.0]
        assert str(clone) == str(err)

    def test_other_points_complete_before_the_failure_surfaces(
            self, monkeypatch):
        good = _point(seed=24)
        bad = _point(topology="never-heard-of-it", seed=25)
        with pytest.raises(SweepPointError):
            run_experiments([bad, good], max_workers=2, chunk_size=1)
        # The good point's result landed in the memo despite the failure.
        assert run_experiment(good).packets > 0


class _BrokenPool:
    """Pool whose futures all raise, as after a SIGKILLed worker."""

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, *args, **kwargs):
        from concurrent.futures import Future
        future = Future()
        future.set_exception(
            RuntimeError("A child process terminated abruptly"))
        return future

    def shutdown(self, *args, **kwargs):
        pass


class _StalledPool:
    """Pool whose futures never complete, as after a deadlocked worker."""

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, *args, **kwargs):
        from concurrent.futures import Future
        return Future()  # forever pending

    def shutdown(self, *args, **kwargs):
        pass


class TestDegradation:
    def test_broken_pool_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _BrokenPool)
        points = [_point(seed=s) for s in (31, 32, 33)]
        results = run_experiments(points, max_workers=2, chunk_size=1)
        assert [r.config for r in results] == points
        assert all(r.packets > 0 for r in results)

    def test_stalled_pool_times_out_then_degrades(self, monkeypatch):
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _StalledPool)
        points = [_point(seed=s) for s in (34, 35)]
        results = run_experiments(points, max_workers=2, chunk_size=1,
                                  timeout=0.05)
        assert [r.config for r in results] == points

    def test_degraded_run_matches_serial(self, monkeypatch):
        points = [_point(seed=s) for s in (36, 37)]
        serial = run_experiments(points, max_workers=1)
        clear_cache()
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _BrokenPool)
        degraded = run_experiments(points, max_workers=2, chunk_size=1)
        assert degraded == serial  # bit-identical despite the pool loss


class TestJournalResume:
    def test_completed_points_are_journaled_as_they_land(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        points = [_point(seed=s) for s in (41, 42)]
        results = run_experiments(points, max_workers=1, journal=path)
        journaled = SweepJournal(path).load()
        assert set(journaled) == {store_key(p) for p in points}
        assert results[0].packets > 0

    def test_resume_skips_journaled_points(self, tmp_path, monkeypatch):
        path = str(tmp_path / "sweep.journal")
        points = [_point(seed=s) for s in (43, 44, 45)]
        full = run_experiments(points, max_workers=1, journal=path)

        def bomb(cfg, check=False, **kwargs):
            raise AssertionError("resume must not re-simulate")

        clear_cache()
        monkeypatch.setattr(parallel, "run_experiment", bomb)
        resumed = run_experiments(points, max_workers=1, journal=path,
                                  resume=True)
        assert resumed == full  # bit-identical merge

    def test_partial_journal_recomputes_only_the_rest(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        points = [_point(seed=s) for s in (46, 47)]
        full = run_experiments(points, max_workers=1)
        clear_cache()
        # Journal only the first point, as if killed after one checkpoint.
        from repro.store import result_to_payload
        with SweepJournal(path) as journal:
            journal.append(store_key(points[0]),
                           result_to_payload(full[0]))
        resumed = run_experiments(points, max_workers=1, journal=path,
                                  resume=True)
        assert resumed == full

    def test_without_resume_the_journal_is_truncated(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        stale = _point(seed=48)
        run_experiments([stale], max_workers=1, journal=path)
        clear_cache()
        fresh = _point(seed=49)
        run_experiments([fresh], max_workers=1, journal=path)
        assert set(SweepJournal(path).load()) == {store_key(fresh)}


class TestStoreIntegration:
    def test_write_through_then_warm_hits(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        points = [_point(seed=s) for s in (51, 52)]
        cold = run_experiments(points, max_workers=1, store=store)
        assert store.stats["puts"] == 2
        clear_cache()
        store.reset_stats()
        warm = run_experiments(points, max_workers=1, store=store)
        assert warm == cold
        assert store.stats["hits"] == 2
        assert store.stats["misses"] == 0
        assert store.stats["puts"] == 0

    def test_store_hit_still_checkpoints_to_the_journal(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        point = _point(seed=53)
        run_experiments([point], max_workers=1, store=store)
        clear_cache()
        path = str(tmp_path / "sweep.journal")
        run_experiments([point], max_workers=1, store=store, journal=path)
        assert set(SweepJournal(path).load()) == {store_key(point)}

    def test_replayed_points_are_recorded_without_encoding(
            self, tmp_path, monkeypatch):
        """A store hit is journaled, and a journal replay is stored, from
        the payload text the read just verified — byte for byte what the
        cold sweep wrote, with no serialization in between."""
        store = ResultStore(str(tmp_path / "store"))
        points = [_point(seed=s) for s in (51, 52)]
        cold_path = str(tmp_path / "cold.journal")
        cold = run_experiments(points, max_workers=1, store=store,
                               journal=cold_path)

        def bomb(result):
            raise AssertionError("a replayed point must not be re-encoded")

        monkeypatch.setattr(parallel, "result_to_text", bomb)
        clear_cache()
        warm_path = str(tmp_path / "warm.journal")
        warm = run_experiments(points, max_workers=1, store=store,
                               journal=warm_path)
        assert warm == cold
        with open(cold_path, "rb") as a, open(warm_path, "rb") as b:
            assert a.read() == b.read()
        clear_cache()
        refilled = ResultStore(str(tmp_path / "refilled"))
        resumed = run_experiments(points, max_workers=1, store=refilled,
                                  journal=warm_path, resume=True)
        assert resumed == cold
        assert refilled.stats["puts"] == 2
        for point in points:
            key = store_key(point)
            assert refilled.get_with_text(key) == store.get_with_text(key)

    def test_check_bypasses_memo_store_and_journal(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        point = _point(seed=54)
        run_experiments([point], max_workers=1, store=store)
        path = str(tmp_path / "sweep.journal")
        checked = run_experiments([point], max_workers=1, store=store,
                                  journal=path, check=True)
        # The monitored run really ran: it carries a monitor report, the
        # cached (unmonitored) result does not, and nothing was journaled.
        assert checked[0].monitor_report is not None
        assert SweepJournal(path).load() == {}
