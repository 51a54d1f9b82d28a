"""``repro top``: the live follower and its trace/report exports.

Covers the follower against finished streams (``--once`` post-mortem),
streams still being appended (a writer interleaved with the polling
loop), bare checkpoint journals, and the Perfetto export's
trace_event structure.
"""

import json

import pytest

from repro.harness.experiment import (ExperimentConfig, clear_cache,
                                      set_default_store)
from repro.harness.parallel import run_experiments
from repro.store.journal import SweepJournal
from repro.telemetry import (SweepProgress, Telemetry, read_stream,
                             run_top, telemetry_chrome_trace)
from repro.telemetry.top import parse_journal_line, sniff_stream_kind


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


def _sweep(tmp_path, **kwargs):
    tel = str(tmp_path / "t.jsonl")
    run_experiments([_point(s) for s in (1, 2, 3)], max_workers=1,
                    telemetry=tel, **kwargs)
    return tel


class TestSniff:
    def test_kinds(self, tmp_path):
        tel = _sweep(tmp_path)
        assert sniff_stream_kind(tel) == "telemetry"
        journal = str(tmp_path / "j.jsonl")
        SweepJournal(journal).append("k" * 64, {"x": 1})
        assert sniff_stream_kind(journal) == "journal"
        assert sniff_stream_kind(str(tmp_path / "absent")) is None
        empty = str(tmp_path / "empty")
        open(empty, "w").close()
        assert sniff_stream_kind(empty) is None

    def test_journal_lines_parse_to_progress_records(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        SweepJournal(journal).append("k" * 64, {"x": 1})
        line = open(journal, encoding="utf-8").readline()
        assert parse_journal_line(line) == {"ev": "journal_point",
                                            "key": "k" * 64}
        assert parse_journal_line("garbage") is None


class TestSweepProgress:
    def test_render_finished_sweep(self, tmp_path):
        progress = SweepProgress()
        for record in read_stream(_sweep(tmp_path)):
            progress.feed(record)
        assert progress.finished
        assert progress.completed == 3
        text = progress.render()
        assert "[ok] 3/3 points (100%)" in text
        assert "simulate 3" in text
        assert "retries 0" in text

    def test_render_in_flight_has_eta(self, tmp_path):
        records = read_stream(_sweep(tmp_path))
        progress = SweepProgress()
        # Drop sweep_end plus the final point's span and persist record.
        for record in records[:-3]:
            progress.feed(record)
        assert not progress.finished
        text = progress.render(now=progress.last_t + 1.0)
        assert "[running]" in text
        assert "ETA" in text

    def test_degrade_and_failures_surface(self, tmp_path):
        tel = str(tmp_path / "t.jsonl")
        with Telemetry(tel) as emitter:
            emitter.emit("sweep_begin", points=2, workers=2)
            emitter.emit("degrade", reason="stall-timeout", points=2)
            emitter.emit("point_error", idx=0, label="p0", reason="boom",
                         attempts=3)
            emitter.emit("sweep_end", status="error", error="boom")
        progress = SweepProgress()
        for record in read_stream(tel):
            progress.feed(record)
        text = progress.render()
        assert "DEGRADED: stall-timeout" in text
        assert "FAILED point 0" in text
        assert "SWEEP FAILED: boom" in text

    def test_new_sweep_begin_resets(self, tmp_path):
        tel = _sweep(tmp_path)
        clear_cache()
        run_experiments([_point(9)], max_workers=1, telemetry=tel,
                        resume=True)
        progress = SweepProgress()
        for record in read_stream(tel):
            progress.feed(record)
        assert progress.completed == 1


class TestRunTop:
    def test_once_snapshot(self, tmp_path):
        tel = _sweep(tmp_path)
        lines = []
        assert run_top(tel, once=True, out=lines.append) == 0
        assert "[ok] 3/3 points" in "\n".join(lines)

    def test_exports(self, tmp_path):
        tel = _sweep(tmp_path)
        trace = str(tmp_path / "trace.json")
        report = str(tmp_path / "report.json")
        lines = []
        run_top(tel, once=True, trace_out=trace, report_out=report,
                out=lines.append)
        doc = json.load(open(trace, encoding="utf-8"))
        assert doc["traceEvents"]
        rep = json.load(open(report, encoding="utf-8"))
        assert rep["schema"] == "repro.sweep-report/1"
        assert rep["completed"] == 3

    def test_follow_live_writer(self, tmp_path):
        """The follower tracks a stream another 'process' is appending:
        each injected sleep writes the next event, and the loop exits on
        the terminal record without needing --once or max_polls."""
        source = read_stream(_sweep(tmp_path))
        live = str(tmp_path / "live.jsonl")
        emitter = Telemetry(live)
        pending = list(source)

        def advance(_interval):
            if pending:
                record = pending.pop(0)
                record.pop("t"), record.pop("pid"), record.pop("sweep")
                emitter.emit(record.pop("ev"), **record)

        # Seed the stream so the kind sniffs as telemetry.
        advance(0)
        lines = []
        code = run_top(live, interval=0.01, out=lines.append,
                       sleep=advance, max_polls=100)
        emitter.close()
        assert code == 0
        assert not pending, "follower exited before the stream finished"
        assert "[ok] 3/3 points" in lines[-1]

    def test_journal_mode(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        run_experiments([_point(s) for s in (1, 2)], max_workers=1,
                        journal=journal)
        lines = []
        assert run_top(journal, once=True, out=lines.append) == 0
        assert "2 points checkpointed" in "\n".join(lines)
        # Exports need span data a journal does not carry.
        lines = []
        run_top(journal, once=True, trace_out=str(tmp_path / "x.json"),
                out=lines.append)
        assert any("need a telemetry stream" in line for line in lines)

    def test_empty_stream_notes_and_exits(self, tmp_path):
        path = str(tmp_path / "nothing.jsonl")
        open(path, "w").close()
        lines = []
        assert run_top(path, once=True, out=lines.append) == 0
        assert any("no valid records" in line for line in lines)


class TestChromeTrace:
    def test_trace_structure(self, tmp_path):
        tel = _sweep(tmp_path)
        doc = telemetry_chrome_trace(read_stream(tel))
        events = doc["traceEvents"]
        names = {e.get("name") for e in events}
        assert "sweep" in names
        assert any(n and n.startswith("point:") for n in names)
        slices = [e for e in events if e.get("ph") == "X"]
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in slices)
        meta = [e for e in events if e.get("ph") == "M"]
        assert any("scheduler" in e["args"]["name"] for e in meta)

    def test_batched_lanes_become_threads(self, tmp_path):
        pytest.importorskip("numpy")
        tel = str(tmp_path / "t.jsonl")
        points = [_point(s, backend="auto") for s in range(1, 5)]
        run_experiments(points, max_workers=1, batch_size=4, telemetry=tel)
        doc = telemetry_chrome_trace(read_stream(tel))
        point_tids = {e["tid"] for e in doc["traceEvents"]
                      if e.get("name", "").startswith("point:")}
        assert point_tids == {1, 2, 3, 4}  # one thread track per lane
