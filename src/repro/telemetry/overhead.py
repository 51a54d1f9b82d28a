"""Bench-gate proof that telemetry-off sweeps pay nothing.

Same contract as the PR 3 probe gate (``instrument.overhead``): the
instrumentation must be a null object when disabled. Here that means
the scheduler holds ``telemetry=None`` by default, takes no
telemetry branches on that path, and produces bit-identical results
with telemetry on and off. ``repro bench`` runs this check and
records it in the report's ``overhead_gate.telemetry`` block.
"""

from __future__ import annotations

import inspect
import os
import tempfile
import time

from ..instrument.overhead import OverheadGateError


def _gate_configs():
    """A small, scalar-only sweep the gate can run in milliseconds."""
    from ..harness.experiment import ExperimentConfig
    return [ExperimentConfig(topology="mesh", kx=4, ky=4, concentration=1,
                             routing="xy", vc_policy="static",
                             pattern="uniform", rate=0.1, packet_size=5,
                             synth_cycles=200, synth_warmup=50,
                             backend="scalar", seed=seed)
            for seed in (11, 12, 13, 14)]


def telemetry_cold_check() -> dict:
    """Assert the telemetry-off path is structurally and observably free.

    Three checks, raising :class:`OverheadGateError` on the first
    failure:

    * ``run_experiments`` defaults to ``telemetry=None`` and a
      default-built scheduler holds no emitter (the null-object guard —
      no stream, no spans, no timing calls on the off path);
    * a telemetry-off sweep creates no stream file;
    * the same sweep run with telemetry on returns bit-identical
      results and leaves a stream with one span per point.
    """
    from ..harness import parallel
    from ..harness.experiment import clear_cache
    from .stream import read_stream

    default = inspect.signature(
        parallel.run_experiments).parameters["telemetry"].default
    if default is not None:
        raise OverheadGateError(
            f"run_experiments telemetry default is {default!r}, not None")
    scheduler = parallel._Scheduler(
        [], check=False, store=None, journal=None, resume=False,
        max_attempts=1, backoff_base=0.5, backoff_cap=30.0, timeout=None,
        sleep=time.sleep)
    if scheduler.tel is not None:
        raise OverheadGateError(
            "a default-built scheduler holds a telemetry emitter; the "
            "off path must be a null object")

    configs = _gate_configs()
    clear_cache()
    off = parallel.run_experiments(configs, max_workers=1)
    with tempfile.TemporaryDirectory() as tmp:
        stream_path = os.path.join(tmp, "gate-telemetry.jsonl")
        clear_cache()
        on = parallel.run_experiments(configs, max_workers=1,
                                      telemetry=stream_path)
        records = read_stream(stream_path)
    clear_cache()
    if off != on:
        raise OverheadGateError(
            "telemetry-on sweep results differ from telemetry-off")
    spans = [r for r in records if r.get("ev") == "point"]
    if len(spans) != len(configs):
        raise OverheadGateError(
            f"expected {len(configs)} point spans, stream has "
            f"{len(spans)}")
    return {
        "default_off": True,
        "scheduler_null": True,
        "results_identical": True,
        "points": len(configs),
        "stream_records": len(records),
    }
