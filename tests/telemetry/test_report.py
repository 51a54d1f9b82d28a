"""Sweep-report aggregation and its ``repro compare`` integration.

``build_sweep_report`` folds a raw telemetry stream into the
``repro.sweep-report/1`` summary; these tests pin the aggregation
semantics (tier mixes, cross-process store totals, batch occupancy,
scheduler accounting) and prove the report diffs through the existing
regression machinery with sensible directions.
"""

import json

import pytest

from repro.harness.experiment import (ExperimentConfig, clear_cache,
                                      set_default_store)
from repro.harness.parallel import run_experiments
from repro.monitor.regression import compare_docs
from repro.store import ResultStore
from repro.telemetry import (SWEEP_REPORT_SCHEMA, build_sweep_report,
                             read_stream, report_path, write_sweep_report)


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


def _regressed(verdict):
    return [row["metric"] for row in verdict["rows"]
            if row["status"] == "regressed"]


def _sweep(tmp_path, name="t.jsonl", seeds=(1, 2, 3), workers=1, **kwargs):
    tel = str(tmp_path / name)
    run_experiments([_point(s) for s in seeds], max_workers=workers,
                    telemetry=tel, **kwargs)
    return tel


class TestAggregation:
    def test_clean_sweep_report(self, tmp_path):
        tel = _sweep(tmp_path)
        report = build_sweep_report(read_stream(tel))
        assert report["schema"] == SWEEP_REPORT_SCHEMA
        assert report["status"] == "ok"
        assert report["points"] == 3
        assert report["completed"] == 3
        assert report["failed"] == 0
        assert report["tiers"] == {"simulate": 3}
        assert report["points_per_s"] > 0
        assert report["scheduler"]["degraded"] == []

    def test_sidecar_written_at_sweep_end(self, tmp_path):
        tel = _sweep(tmp_path)
        sidecar = report_path(tel)
        doc = json.load(open(sidecar, encoding="utf-8"))
        assert doc == build_sweep_report(read_stream(tel))
        # Explicit re-derivation writes the identical document.
        out = write_sweep_report(tel, str(tmp_path / "again.json"))
        assert json.load(open(out, encoding="utf-8")) == doc

    def test_store_stats_aggregate_across_processes(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        set_default_store(store)
        tel = _sweep(tmp_path, seeds=tuple(range(1, 7)), workers=2,
                     chunk_size=1)
        report = build_sweep_report(read_stream(tel))
        # Workers only simulate: the parent reads each point once, puts
        # each result once, and is the one process with store traffic.
        store_block = report["store"]
        assert store_block["processes"] == 1
        assert store_block["misses"] == store_block["puts"] == 6
        assert store_block["redundant"] == 0
        assert report["store_hit_rate"] == 0.0
        # Warm re-run: everything hits, across however many processes.
        clear_cache()
        tel2 = _sweep(tmp_path, name="warm.jsonl",
                      seeds=tuple(range(1, 7)), workers=1)
        warm = build_sweep_report(read_stream(tel2))
        assert warm["store"]["hits"] == 6
        assert warm["store_hit_rate"] == 1.0
        assert warm["tiers"] == {"store": 6}

    def test_batch_occupancy(self, tmp_path):
        pytest.importorskip("numpy")
        tel = str(tmp_path / "t.jsonl")
        points = [_point(s, backend="auto") for s in range(1, 6)]
        run_experiments(points, max_workers=1, batch_size=4, telemetry=tel)
        report = build_sweep_report(read_stream(tel))
        batch = report["batch"]
        # 5 points into size-4 units: one full 4-lane unit plus one solo
        # point (singleton units run unbatched, resolving to vectorized).
        assert batch["lanes"] == 4
        assert batch["multi_lane_units"] == 1
        assert batch["occupancy"] == pytest.approx(1.0)
        assert report["backends"] == {"batched": 4, "vectorized": 1}

    def test_in_flight_stream_reports_partial(self, tmp_path):
        tel = _sweep(tmp_path)
        records = read_stream(tel)
        # Drop the terminal record: the stream of a killed sweep.
        report = build_sweep_report(
            [r for r in records if r["ev"] != "sweep_end"])
        assert report["status"] == "in-flight"
        assert report["completed"] == 3

    def test_latest_sweep_wins_in_appended_stream(self, tmp_path):
        tel = _sweep(tmp_path)
        # Append a second sweep to the same file (resume-style reuse).
        clear_cache()
        run_experiments([_point(s) for s in (8, 9)], max_workers=1,
                        telemetry=tel, resume=True)
        report = build_sweep_report(read_stream(tel))
        assert report["points"] == 2


class TestCompareIntegration:
    def test_identical_cold_reports_do_not_regress(self, tmp_path):
        a = build_sweep_report(read_stream(_sweep(tmp_path, "a.jsonl")))
        clear_cache()
        b = build_sweep_report(read_stream(_sweep(tmp_path, "b.jsonl")))
        verdict = compare_docs(a, b, {"*_s": 100.0, "*points_per_s": 100.0,
                                      "*utilization": 1.0,
                                      "*overhead_fraction": 1.0})
        assert _regressed(verdict) == []

    def test_hit_rate_drop_regresses(self, tmp_path):
        a = build_sweep_report(read_stream(_sweep(tmp_path, "a.jsonl")))
        clear_cache()
        b = build_sweep_report(read_stream(_sweep(tmp_path, "b.jsonl")))
        a["store_hit_rate"], b["store_hit_rate"] = 1.0, 0.5
        verdict = compare_docs(a, b, {"*_s": 100.0, "*points_per_s": 100.0,
                                      "*utilization": 1.0,
                                      "*overhead_fraction": 1.0})
        assert "store_hit_rate" in _regressed(verdict)

    def test_throughput_direction_is_higher(self, tmp_path):
        a = build_sweep_report(read_stream(_sweep(tmp_path, "a.jsonl")))
        clear_cache()
        b = build_sweep_report(read_stream(_sweep(tmp_path, "b.jsonl")))
        a["points_per_s"], b["points_per_s"] = 100.0, 10.0
        # Overrides match first-in-order, so the throughput rule must be
        # listed before the catch-all *_s wall rule it would fall into.
        loose = {"*points_per_s": 0.10, "*_s": 100.0, "*utilization": 1.0,
                 "*overhead_fraction": 1.0}
        assert "points_per_s" in _regressed(compare_docs(a, b, loose))
        # And the reverse is an improvement, not a regression.
        assert "points_per_s" not in _regressed(compare_docs(b, a, loose))
