"""One way to run a sweep unit: the inline loop, the worker pool and the
retry pass execute a unit through the same function and take its
outcomes in through the same method, so a sweep is the same sweep at
any worker count — results, journal, spans and the error it ends on.
"""

import pytest

pytest.importorskip("numpy")

from repro.harness.experiment import (ExperimentConfig, clear_cache,
                                      memo_hit)
from repro.harness.parallel import SweepPointError, run_experiments
from repro.store import SweepJournal, payload_to_result, store_key
from repro.telemetry import read_stream


def _point(seed, backend="scalar", **overrides):
    base = dict(topology="mesh", kx=4, ky=4, concentration=1, routing="xy",
                pattern="uniform", rate=0.05, synth_cycles=150,
                synth_warmup=30, seed=seed, backend=backend)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


#: The point that fails: one that runs solo, or a lane of the batched
#: unit (the shared chip then fails and every lane reruns solo).
BAD = {"solo": _point(3, topology="never-heard-of-it"),
       "lane": _point(3, backend="auto", pattern="never-heard-of-it")}


def _sweep(bad, workers, tmp_path):
    """A batched unit, solo points and ``bad`` in the middle, with one
    retry: what the sweep left behind at this worker count."""
    points = [_point(1, "auto"), _point(2), bad, _point(4, "auto"),
              _point(5), _point(6, "auto")]
    journal = str(tmp_path / f"sweep-{workers}.journal")
    stream = str(tmp_path / f"sweep-{workers}.telemetry")
    with pytest.raises(SweepPointError) as excinfo:
        run_experiments(points, max_workers=workers, chunk_size=1,
                        retries=1, sleep=lambda s: None, journal=journal,
                        telemetry=stream)
    clear_cache()
    err = excinfo.value
    spans = sorted(
        ({name: value for name, value in record.items()
          if name not in ("t", "pid", "dur_s", "sweep")}
         for record in read_stream(stream)
         if record["ev"] in ("point", "point_error")),
        key=lambda span: span["idx"])
    results = {key: payload_to_result(payload)
               for key, payload in SweepJournal(journal).load().items()}
    return {"good": {store_key(p) for p in points if p is not bad},
            "results": results, "spans": spans,
            "error": (err.point, err.cause, err.attempts, err.backoff_s)}


@pytest.mark.parametrize("bad", sorted(BAD))
def test_a_sweep_is_the_same_sweep_at_any_worker_count(bad, tmp_path):
    inline = _sweep(BAD[bad], 1, tmp_path)
    pooled = _sweep(BAD[bad], 2, tmp_path)
    # Every other point was simulated, persisted and journaled before the
    # exhausted one raised (DESIGN.md §11), inline as in the pool...
    assert set(inline["results"]) == set(pooled["results"]) == inline["good"]
    assert inline["results"] == pooled["results"]
    # ...and the streams tell the same story: one span per finished
    # point, one terminal span for the failure, field for field.
    assert inline["spans"] == pooled["spans"]
    assert [span["ev"] for span in inline["spans"]].count("point") == 5
    (failure,) = [s for s in inline["spans"] if s["ev"] == "point_error"]
    assert failure["idx"] == 2 and failure["attempts"] == 2
    assert inline["error"] == pooled["error"]
    assert inline["error"][2:] == (2, [0.5])


def test_inline_sweep_finishes_the_rest_before_it_raises():
    good, bad = _point(7), BAD["solo"]
    with pytest.raises(SweepPointError) as excinfo:
        run_experiments([bad, good], max_workers=1)
    assert isinstance(excinfo.value.__cause__, Exception)  # chained inline
    assert memo_hit(good) is not None
