"""The bytes the two append-only logs write, pinned.

The checkpoint journal and the telemetry stream share one line layout
(``repro.store.sealed``). These cases fix what lands on disk, so a change
to how the lines are written shows here before a resumed sweep or a
stream follower meets it:

* one ``SweepJournal.append_text`` line and one ``TelemetryWriter.write``
  line, byte for byte;
* every record of a cold and a warm sweep with telemetry on, minus what
  is stamped per run (time, pid, sweep id, walls);
* a sweep with telemetry off, inline and pooled, never reaches
  ``TelemetryWriter.write`` and creates no file.
"""

import pytest

from repro.harness.experiment import ExperimentConfig, clear_cache
from repro.harness.parallel import run_experiments
from repro.store import ResultStore, SweepJournal
from repro.telemetry import TailReader, TelemetryWriter, read_stream

KEY = "ab" + "0" * 62

JOURNAL_LINE = (
    b'{"schema":"repro.sweep-journal/2","key":"' + KEY.encode()
    + b'","sha256":"9d545217ce67549e31504da75249b759b68f9666b74fe2fe8eeb16'
    b'35cb45ae0a","payload":{"mean_latency":12.5,"seed":3}}\n')

TELEMETRY_LINE = (
    b'{"schema":"repro.telemetry/2","sha256":"7669411761b5f2f7343966804dcb'
    b'019c11a895130e0e8550ac84c5f7a5e17cc7","payload":{"backoff_s":[0.5,'
    b'1.0],"dur_s":0.25,"ev":"point","idx":3,"label":"a/b@0.1"}}\n')

#: Fields stamped per run, not per fact: their values are not pinned.
_STAMPED = {"t", "pid", "sweep", "dur_s", "store_s", "journal_s", "wall_s"}


def _configs():
    return [ExperimentConfig(topology="mesh", kx=2, ky=2, concentration=1,
                             routing="xy", vc_policy="static",
                             pattern="uniform", rate=0.05, synth_cycles=60,
                             synth_warmup=10, backend="scalar", seed=seed)
            for seed in (1, 2)]


def _facts(records):
    """Each record with its stamped fields named, not valued."""
    return [{name: ("<stamped>" if name in _STAMPED else value)
             for name, value in record.items()} for record in records]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestLineBytes:
    def test_journal_line(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal(str(path)) as journal:
            journal.append_text(KEY, '{"mean_latency":12.5,"seed":3}')
        assert path.read_bytes() == JOURNAL_LINE

    def test_telemetry_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(str(path)) as writer:
            writer.write({"ev": "point", "idx": 3, "dur_s": 0.25,
                          "label": "a/b@0.1", "backoff_s": [0.5, 1.0]})
        assert path.read_bytes() == TELEMETRY_LINE


class TestSweepRecords:
    def test_cold_then_warm_sweep(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        journal = str(tmp_path / "sweep.journal")
        cold, warm = str(tmp_path / "cold.jsonl"), str(tmp_path / "warm.jsonl")
        run_experiments(_configs(), max_workers=1, store=store,
                        journal=journal, telemetry=cold)
        clear_cache()
        run_experiments(_configs(), max_workers=1, store=store,
                        journal=journal, telemetry=warm)
        keys = list(SweepJournal(journal).load())
        labels = [cfg.label for cfg in _configs()]
        decision = {"policy": "scalar", "reason": "explicit"}

        def begin():
            return {"ev": "sweep_begin", "t": "<stamped>",
                    "pid": "<stamped>", "sweep": "<stamped>", "points": 2,
                    "workers": 1, "batch_size": 16, "check": False,
                    "resume": False, "retries": 0, "journal": journal}

        def stamped(ev, **fields):
            return {"ev": ev, "t": "<stamped>", "pid": "<stamped>",
                    "sweep": "<stamped>", **fields}

        expected_cold = [begin(), stamped(
            "batch_groups", todo=2, units=2, multi_lane_units=0,
            batched_points=0, batch_size=16)]
        for idx in range(2):
            expected_cold += [
                stamped("point", idx=idx, label=labels[idx], key=keys[idx],
                        tier="simulate", dur_s="<stamped>", attempts=1,
                        backoff_s=[], solo_fallback=False, backend="scalar",
                        decision=decision),
                stamped("persist", idx=idx, store_s="<stamped>",
                        journal_s="<stamped>")]
        expected_cold += [
            stamped("worker_store", role="parent",
                    stats={"hits": 0, "misses": 2, "puts": 2,
                           "redundant": 0, "quarantined": 0}),
            stamped("sweep_end", status="ok", error=None,
                    wall_s="<stamped>", completed=2)]
        assert _facts(read_stream(cold)) == expected_cold

        expected_warm = [begin()] + [
            stamped("point", idx=idx, label=labels[idx], key=keys[idx],
                    tier="store", dur_s="<stamped>", attempts=0)
            for idx in range(2)] + [
            stamped("worker_store", role="parent",
                    stats={"hits": 2, "misses": 0, "puts": 0,
                           "redundant": 0, "quarantined": 0}),
            stamped("sweep_end", status="ok", error=None,
                    wall_s="<stamped>", completed=2)]
        assert _facts(read_stream(warm)) == expected_warm


class TestTelemetryOff:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_off_sweep_never_writes(self, tmp_path, monkeypatch, workers):
        def refuse(self, record):
            raise AssertionError(f"telemetry off wrote {record!r}")

        monkeypatch.setattr(TelemetryWriter, "write", refuse)
        monkeypatch.chdir(tmp_path)
        results = run_experiments(_configs(), max_workers=workers,
                                  batch_size=1)
        assert all(result is not None for result in results)
        assert list(tmp_path.iterdir()) == []


class TestNewlineEdge:
    def test_journal_keeps_a_final_line_without_newline(self, tmp_path):
        path = tmp_path / "sweep.journal"
        path.write_bytes(JOURNAL_LINE + JOURNAL_LINE.replace(
            b'"ab', b'"cd').rstrip(b"\n"))
        # The key sits in the envelope, outside the digest: the renamed
        # copy is a valid line that only lost its newline.
        assert set(SweepJournal(str(path)).load()) == {KEY, "cd" + KEY[2:]}

    def test_stream_keeps_a_final_line_without_newline(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(TELEMETRY_LINE + TELEMETRY_LINE.rstrip(b"\n"))
        assert len(read_stream(str(path))) == 2

    def test_a_follower_holds_it_until_the_newline(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(TELEMETRY_LINE + TELEMETRY_LINE.rstrip(b"\n"))
        reader = TailReader(str(path))
        assert len(reader.poll()) == 1
        with open(path, "ab") as fh:
            fh.write(b"\n")
        assert len(reader.poll()) == 1
