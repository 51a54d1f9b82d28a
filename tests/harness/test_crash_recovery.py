"""Crash-recovery proofs: the acceptance tests of the resilient engine.

The headline guarantee — a sweep SIGKILLed mid-flight resumes to a
bit-identical result — is proven here with a real subprocess and a real
``SIGKILL``, not a simulated failure: the child sweeps with a journal,
the parent kills it the instant the journal shows partial progress, and
the resumed merge must equal an uninterrupted run field-for-field.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.harness.experiment import ExperimentConfig, clear_cache
from repro.harness.parallel import backoff_delay, run_experiments
from repro.store import ResultStore, SweepJournal, store_key

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: The exact point list the child sweeps (kept in one place so the
#: parent's reference run and resume use identical configs).
POINT_SEEDS = (61, 62, 63, 64, 65, 66)


def _point(seed, **overrides):
    base = dict(topology="mesh", kx=2, ky=2, concentration=1, routing="xy",
                pattern="uniform", rate=0.05, synth_cycles=120,
                synth_warmup=20, seed=seed)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


_CHILD_SCRIPT = textwrap.dedent("""
    import sys, time
    sys.path.insert(0, {src!r})
    import repro.harness.parallel as parallel
    from repro.harness.experiment import ExperimentConfig

    real = parallel.run_experiment
    def slowed(cfg, check=False, **kwargs):
        result = real(cfg, check=check, **kwargs)
        time.sleep(0.25)   # widen the kill window between checkpoints
        return result
    parallel.run_experiment = slowed

    points = [ExperimentConfig(topology="mesh", kx=2, ky=2,
                               concentration=1, routing="xy",
                               pattern="uniform", rate=0.05,
                               synth_cycles=120, synth_warmup=20,
                               seed=s)
              for s in {seeds!r}]
    parallel.run_experiments(points, max_workers=1, journal={journal!r})
    print("UNEXPECTED: sweep finished before the kill", flush=True)
""")


def _journaled_count(path):
    try:
        return len(SweepJournal(path).load())
    except OSError:
        return 0


class TestKillMidSweep:
    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        journal = str(tmp_path / "sweep.journal")
        child = subprocess.Popen(
            [sys.executable, "-c",
             _CHILD_SCRIPT.format(src=os.path.abspath(SRC),
                                  seeds=POINT_SEEDS, journal=journal)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            # Kill the instant the journal proves partial progress.
            deadline = time.monotonic() + 60
            while (_journaled_count(journal) < 2
                   and time.monotonic() < deadline
                   and child.poll() is None):
                time.sleep(0.02)
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        completed = _journaled_count(journal)
        assert 1 <= completed < len(POINT_SEEDS), (
            f"kill landed outside the sweep: {completed} points journaled")

        points = [_point(s) for s in POINT_SEEDS]
        resumed = run_experiments(points, max_workers=1, journal=journal,
                                  resume=True)
        clear_cache()
        reference = run_experiments(points, max_workers=1)
        # Field-for-field equality of frozen dataclasses: the merged
        # journal + recomputed tail is indistinguishable from a run that
        # was never interrupted.
        assert resumed == reference

    def test_resumed_journal_ends_self_contained(self, tmp_path):
        journal = str(tmp_path / "sweep.journal")
        points = [_point(s) for s in POINT_SEEDS[:3]]
        full = run_experiments(points, max_workers=1, journal=journal)
        clear_cache()
        resumed = run_experiments(points, max_workers=1, journal=journal,
                                  resume=True)
        assert resumed == full
        # After the resume the journal still covers every point.
        assert set(SweepJournal(journal).load()) == {store_key(p)
                                                     for p in points}


class TestCorruptStoreRecovery:
    def test_corrupt_entry_is_quarantined_and_recomputed(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        point = _point(71)
        first = run_experiments([point], max_workers=1, store=store)[0]
        path = store._entry_path(store_key(point))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.store-entry/1", "truncated')
        clear_cache()
        store.reset_stats()
        again = run_experiments([point], max_workers=1, store=store)[0]
        assert again == first  # recomputed, deterministically identical
        assert store.stats["quarantined"] == 1
        assert store.stats["puts"] == 1  # healthy entry rewritten
        assert len(os.listdir(store.quarantine_dir)) == 1  # kept, not erased
        clear_cache()
        store.reset_stats()
        run_experiments([point], max_workers=1, store=store)
        assert store.stats["hits"] == 1  # store healed


class TestConcurrentSweeps:
    def test_two_processes_race_one_store_without_damage(self, tmp_path):
        store_dir = str(tmp_path / "store")
        seeds = (81, 82, 83)
        script = textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {os.path.abspath(SRC)!r})
            from repro.harness.experiment import ExperimentConfig
            from repro.harness.parallel import run_experiments
            from repro.store import ResultStore
            points = [ExperimentConfig(topology="mesh", kx=2, ky=2,
                                       concentration=1, routing="xy",
                                       pattern="uniform", rate=0.05,
                                       synth_cycles=120, synth_warmup=20,
                                       seed=s)
                      for s in {seeds!r}]
            run_experiments(points, max_workers=1,
                            store=ResultStore({store_dir!r}))
        """)
        racers = [subprocess.Popen([sys.executable, "-c", script],
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE)
                  for _ in range(2)]
        for racer in racers:
            _, err = racer.communicate(timeout=120)
            assert racer.returncode == 0, err.decode()
        store = ResultStore(store_dir)
        points = [_point(s) for s in seeds]
        assert sorted(store.keys()) == sorted(store_key(p) for p in points)
        assert store.verify()["quarantined"] == []
        assert os.listdir(store.tmp_dir) == []
        # The racers' entries serve a warm local run verbatim.
        reference = run_experiments(points, max_workers=1)
        clear_cache()
        store.reset_stats()
        warm = run_experiments(points, max_workers=1, store=store)
        assert warm == reference
        assert store.stats["misses"] == 0


class TestDeterministicBackoff:
    def test_documented_schedule(self):
        assert [backoff_delay(k, 0.5, 30.0) for k in range(1, 9)] == [
            0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]

    def test_two_failing_runs_wait_identically(self, monkeypatch):
        import repro.harness.parallel as parallel

        def broken(cfg, check=False, **kwargs):
            raise OSError("flaky")

        monkeypatch.setattr(parallel, "run_experiment", broken)
        schedules = []
        for _ in range(2):
            waits = []
            with pytest.raises(Exception):
                run_experiments([_point(91)], max_workers=1, retries=3,
                                backoff_base=0.25, sleep=waits.append)
            schedules.append(waits)
        assert schedules[0] == schedules[1] == [0.25, 0.5, 1.0]
