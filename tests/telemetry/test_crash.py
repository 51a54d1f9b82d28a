"""Telemetry crash contract, proven with a real SIGKILL.

A multi-worker batched sweep is killed mid-flight; its leftover
telemetry stream must still explain every completed point — tier,
backend, retry history — through ``repro top --once`` and the Perfetto
export, every journaled point must have its span (spans flush *before*
journal lines), and the resumed sweep must be bit-identical while its
own stream attributes the replayed points to the journal tier.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.harness.experiment import (ExperimentConfig, clear_cache,
                                      set_default_store)
from repro.harness.parallel import run_experiments
from repro.store import SweepJournal, store_key
from repro.telemetry import (build_sweep_report, read_stream, run_top,
                             telemetry_chrome_trace)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

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
    set_default_store(None)
    yield
    clear_cache()
    set_default_store(None)


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
    parallel.run_experiments(points, max_workers=2, chunk_size=1,
                             batch_size=1, journal={journal!r},
                             telemetry={telemetry!r})
    print("UNEXPECTED: sweep finished before the kill", flush=True)
""")


def _journaled(path):
    try:
        return SweepJournal(path).load()
    except OSError:
        return {}


class TestKilledSweepStream:
    def test_stream_survives_and_reconstructs(self, tmp_path):
        journal = str(tmp_path / "sweep.journal")
        telemetry = str(tmp_path / "sweep.tel.jsonl")
        child = subprocess.Popen(
            [sys.executable, "-c",
             _CHILD_SCRIPT.format(src=os.path.abspath(SRC),
                                  seeds=POINT_SEEDS, journal=journal,
                                  telemetry=telemetry)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60
            while (len(_journaled(journal)) < 2
                   and time.monotonic() < deadline
                   and child.poll() is None):
                time.sleep(0.02)
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        journaled = _journaled(journal)
        assert 1 <= len(journaled) < len(POINT_SEEDS), (
            f"kill landed outside the sweep: {len(journaled)} journaled")

        # Spans flush before journal lines: every journaled point's
        # tier/backend/attempt history is reconstructible post-mortem.
        records = read_stream(telemetry)
        spans = {r["key"]: r for r in records if r["ev"] == "point"}
        for key in journaled:
            assert key in spans, f"journaled point {key[:12]} has no span"
            span = spans[key]
            assert span["tier"] == "simulate"
            assert span["attempts"] >= 1
            assert span["dur_s"] > 0

        # The stream has no terminal record — it reads as in-flight.
        report = build_sweep_report(records)
        assert report["status"] == "in-flight"
        assert report["completed"] >= len(journaled)

        # repro top --once renders the post-mortem without error.
        lines = []
        assert run_top(telemetry, once=True, out=lines.append) == 0
        assert "[running]" in lines[0]

        # The Perfetto export renders one slice per completed point.
        trace = telemetry_chrome_trace(records)
        point_slices = [e for e in trace["traceEvents"]
                        if e.get("name", "").startswith("point:")]
        assert len(point_slices) == len(spans)

        # Resume is bit-identical, and the resumed stream attributes the
        # journaled points to the replay tier.
        resumed_tel = str(tmp_path / "resumed.tel.jsonl")
        points = [_point(s) for s in POINT_SEEDS]
        resumed = run_experiments(points, max_workers=1, journal=journal,
                                  resume=True, telemetry=resumed_tel)
        clear_cache()
        reference = run_experiments(points, max_workers=1)
        assert resumed == reference
        resumed_report = build_sweep_report(read_stream(resumed_tel))
        assert resumed_report["status"] == "ok"
        assert resumed_report["completed"] == len(POINT_SEEDS)
        assert (resumed_report["tiers"]["journal-replay"]
                == len(journaled))


def _gone(pid):
    """``pid`` has exited: no such process, or a zombie left unreaped."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    return state == "Z"


class TestKilledSweepWorkers:
    def test_pool_workers_exit_with_their_parent(self, tmp_path):
        """A SIGKILLed sweep leaves no pool worker behind: each worker
        named by a span of the killed sweep's stream is gone within
        5 s of the kill."""
        journal = str(tmp_path / "sweep.journal")
        telemetry = str(tmp_path / "sweep.tel.jsonl")
        child = subprocess.Popen(
            [sys.executable, "-c",
             _CHILD_SCRIPT.format(src=os.path.abspath(SRC),
                                  seeds=POINT_SEEDS, journal=journal,
                                  telemetry=telemetry)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        workers = set()
        try:
            deadline = time.monotonic() + 60
            while (len(_journaled(journal)) < 2
                   and time.monotonic() < deadline
                   and child.poll() is None):
                time.sleep(0.02)
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
            workers = {r["pid"] for r in read_stream(telemetry)
                       if r["ev"] == "point"} - {child.pid}
            assert workers, "no worker wrote a span before the kill"
            deadline = time.monotonic() + 5
            while (time.monotonic() < deadline
                   and not all(_gone(pid) for pid in workers)):
                time.sleep(0.05)
            survivors = sorted(pid for pid in workers if not _gone(pid))
            assert not survivors, (
                f"pool workers outlived the killed sweep: {survivors}")
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            for pid in workers:
                if not _gone(pid):
                    os.kill(pid, signal.SIGKILL)


class TestStreamAppendAcrossRuns:
    def test_killed_then_resumed_stream_reads_as_latest_sweep(
            self, tmp_path):
        """Reusing one stream file across the kill and the resume keeps
        ``repro top`` coherent: the resumed sweep_begin resets the view."""
        journal = str(tmp_path / "j.jsonl")
        telemetry = str(tmp_path / "t.jsonl")
        points = [_point(s) for s in POINT_SEEDS[:3]]
        run_experiments(points, max_workers=1, journal=journal,
                        telemetry=telemetry)
        clear_cache()
        run_experiments(points, max_workers=1, journal=journal,
                        resume=True, telemetry=telemetry)
        lines = []
        run_top(telemetry, once=True, out=lines.append)
        assert "[ok] 3/3 points" in lines[0]
        report = build_sweep_report(read_stream(telemetry))
        assert report["tiers"] == {"journal-replay": 3}
        assert set(SweepJournal(journal).load()) == {store_key(p)
                                                     for p in points}
