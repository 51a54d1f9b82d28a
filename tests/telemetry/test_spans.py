"""Scheduler span contract: one closed span per point, honest tiers.

Every execution path of ``run_experiments`` — serial, pooled, batched
units, cache hits, journal replay, retries, terminal failures — must
leave exactly one ``point`` record per resolved point carrying the tier
that actually resolved it, and telemetry must never change the results
themselves.
"""

import pytest

from repro.harness.experiment import (ExperimentConfig, clear_cache,
                                      set_default_store)
from repro.harness.parallel import SweepPointError, run_experiments
from repro.store import ResultStore, store_key
from repro.telemetry import read_stream


def _point(seed, **overrides):
    base = dict(topology="mesh", kx=2, ky=2, concentration=1, routing="xy",
                pattern="uniform", rate=0.05, synth_cycles=120,
                synth_warmup=20, seed=seed)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    set_default_store(None)
    yield
    clear_cache()
    set_default_store(None)


def _points_of(records):
    return [r for r in records if r["ev"] == "point"]


class TestSpanPerPoint:
    def test_serial_sweep_spans_every_point(self, tmp_path):
        tel = str(tmp_path / "t.jsonl")
        points = [_point(s) for s in (1, 2, 3)]
        run_experiments(points, max_workers=1, telemetry=tel)
        records = read_stream(tel)
        spans = _points_of(records)
        assert sorted(s["idx"] for s in spans) == [0, 1, 2]
        assert {s["tier"] for s in spans} == {"simulate"}
        assert {s["key"] for s in spans} == {store_key(p) for p in points}
        assert records[0]["ev"] == "sweep_begin"
        assert records[-1]["ev"] == "sweep_end"
        assert records[-1]["status"] == "ok"

    def test_pooled_sweep_spans_every_point(self, tmp_path):
        tel = str(tmp_path / "t.jsonl")
        points = [_point(s) for s in range(1, 7)]
        run_experiments(points, max_workers=2, chunk_size=1, telemetry=tel)
        records = read_stream(tel)
        spans = _points_of(records)
        assert sorted(s["idx"] for s in spans) == list(range(6))
        assert any(r["ev"] == "dispatch" for r in records)
        assert any(r["ev"] == "chunk" for r in records)
        # Spans were emitted in the worker processes, not the parent.
        parent = records[0]["pid"]
        assert any(s["pid"] != parent for s in spans)

    def test_results_bit_identical_with_telemetry(self, tmp_path):
        points = [_point(s) for s in (11, 12, 13)]
        plain = run_experiments(points, max_workers=1)
        clear_cache()
        traced = run_experiments(points, max_workers=1,
                                 telemetry=str(tmp_path / "t.jsonl"))
        assert plain == traced


class TestTiers:
    def test_memo_and_store_tiers(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        points = [_point(s) for s in (21, 22)]
        run_experiments(points, max_workers=1, store=store)
        # Memo still warm: both points resolve from the in-process memo.
        tel = str(tmp_path / "memo.jsonl")
        run_experiments(points, max_workers=1, store=store, telemetry=tel)
        assert {s["tier"] for s in _points_of(read_stream(tel))} == {"memo"}
        # Memo cleared, store warm: both resolve from the store, and the
        # span records a real (timed) store read.
        clear_cache()
        tel = str(tmp_path / "store.jsonl")
        run_experiments(points, max_workers=1, store=store, telemetry=tel)
        spans = _points_of(read_stream(tel))
        assert {s["tier"] for s in spans} == {"store"}
        assert all(s["attempts"] == 0 for s in spans)

    def test_journal_replay_tier(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        points = [_point(s) for s in (31, 32)]
        run_experiments(points, max_workers=1, journal=journal)
        clear_cache()
        tel = str(tmp_path / "t.jsonl")
        resumed = run_experiments(points, max_workers=1, journal=journal,
                                  resume=True, telemetry=tel)
        spans = _points_of(read_stream(tel))
        assert {s["tier"] for s in spans} == {"journal-replay"}
        clear_cache()
        assert resumed == run_experiments(points, max_workers=1)

    def test_batched_unit_spans_carry_lanes(self, tmp_path):
        pytest.importorskip("numpy")
        tel = str(tmp_path / "t.jsonl")
        points = [_point(s, backend="auto") for s in range(1, 5)]
        run_experiments(points, max_workers=1, batch_size=4, telemetry=tel)
        records = read_stream(tel)
        spans = _points_of(records)
        assert sorted(s["idx"] for s in spans) == [0, 1, 2, 3]
        assert {s["backend"] for s in spans} == {"batched"}
        assert sorted(s["lane"] for s in spans) == [0, 1, 2, 3]
        assert {s["lanes"] for s in spans} == {4}
        (unit,) = [r for r in records if r["ev"] == "unit"]
        assert unit["status"] == "ok" and unit["lanes"] == 4
        (groups,) = [r for r in records if r["ev"] == "batch_groups"]
        assert groups["multi_lane_units"] == 1
        assert groups["batched_points"] == 4

    def test_backend_decision_recorded(self, tmp_path):
        tel = str(tmp_path / "t.jsonl")
        run_experiments([_point(41)], max_workers=1, telemetry=tel)
        (span,) = _points_of(read_stream(tel))
        assert span["backend"] == "scalar"
        assert span["decision"] == {"policy": "scalar"}


class TestFailurePaths:
    def test_retry_events_and_attempt_count(self, tmp_path, monkeypatch):
        import repro.harness.parallel as parallel
        real = parallel._run_point
        calls = {"n": 0}

        def flaky(cfg, check=False, check_stride=1):
            calls["n"] += 1
            if calls["n"] < 3:
                raise SweepPointError(cfg.label, "OSError: flaky", None,
                                      1, [])
            return real(cfg, check, check_stride)

        monkeypatch.setattr(parallel, "_run_point", flaky)
        tel = str(tmp_path / "t.jsonl")
        run_experiments([_point(51)], max_workers=1, retries=3,
                        backoff_base=0.25, sleep=lambda s: None,
                        telemetry=tel)
        records = read_stream(tel)
        retries = [r for r in records if r["ev"] == "retry"]
        assert [r["delay_s"] for r in retries] == [0.25, 0.5]
        assert all(r["cause"] == "OSError: flaky" for r in retries)
        (span,) = _points_of(records)
        assert span["attempts"] == 3
        assert span["backoff_s"] == [0.25, 0.5]

    def test_terminal_failure_emits_point_error(self, tmp_path,
                                                monkeypatch):
        import repro.harness.parallel as parallel

        def broken(cfg, check=False, check_stride=1):
            raise SweepPointError(cfg.label, "OSError: dead", None, 1, [])

        monkeypatch.setattr(parallel, "_run_point", broken)
        tel = str(tmp_path / "t.jsonl")
        with pytest.raises(SweepPointError):
            run_experiments([_point(52)], max_workers=1, retries=1,
                            backoff_base=0.0, sleep=lambda s: None,
                            telemetry=tel)
        records = read_stream(tel)
        (err,) = [r for r in records if r["ev"] == "point_error"]
        assert err["reason"] == "OSError: dead"
        assert err["attempts"] == 2
        assert records[-1]["ev"] == "sweep_end"
        assert records[-1]["status"] == "error"
        assert "SweepPointError" in records[-1]["error"]


class TestWorkerStore:
    def test_worker_store_deltas_cover_all_puts(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        set_default_store(store)
        tel = str(tmp_path / "t.jsonl")
        points = [_point(s) for s in range(1, 7)]
        run_experiments(points, max_workers=2, chunk_size=1, telemetry=tel)
        records = read_stream(tel)
        deltas = [r for r in records if r["ev"] == "worker_store"]
        assert deltas, "no worker_store events"
        # Workers do no store I/O: the parent's one record is the
        # sweep's whole store traffic, one put per point.
        (parent,) = deltas
        assert parent["pid"] == records[0]["pid"]
        assert parent["role"] == "parent"
        assert parent["stats"]["puts"] == len(points)
        assert parent["stats"]["redundant"] == 0
