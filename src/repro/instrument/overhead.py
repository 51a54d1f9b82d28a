"""The one gate that proves every observer harmless, on every core.

The layer's contract is *zero overhead when off* and *observe, never
perturb* when on. :func:`overhead_gate` checks it on the core
``backend`` names, at a low and a saturation load (``GATE_RATES``):

1. **Structural** (:func:`assert_probes_cold`): a default-built network
   has nothing attached and no event or clock switch on, so a probe
   accidentally left attached (hot) fails deterministically.
2. **Bit-identity** (:func:`identity_check`): the gate workload run bare
   and with every observer the core accepts -- what a checked run
   attaches (``repro.monitor.attach_checks``: the monitor suite on the
   scalar core, the strict invariant checker and phase profiler on an
   array core) plus a ``TimeSeriesProbe`` and, on the scalar core, a
   ``FlitTracer`` -- gives identical ``NetworkStats`` fingerprints, and
   the observers find nothing wrong.

The sweep scheduler's telemetry has the same contract, checked by
:func:`telemetry_cold_check`: with telemetry off the scheduler holds the
off emitter, which writes nothing, and results are bit-identical on and
off.

``python -m repro bench`` runs both. What an *attached* probe costs is a
number, not a gate: ``instrument.probe_overhead_pct.scalar`` in the
``perf/`` ledger.
"""

from __future__ import annotations

import inspect
import os
import tempfile
import time

from ..network.backend import REFUSALS
from ..network.config import PSEUDO_SB, NetworkConfig
from ..network.simulator import Network
from ..topology import make_topology
from ..traffic.synthetic import SyntheticTraffic
from .probe import CompositeProbe
from .series import TimeSeriesProbe
from .tracer import FlitTracer


class OverheadGateError(AssertionError):
    """The instrumentation layer violated its zero-overhead contract."""


def assert_probes_cold(network) -> None:
    """Raise unless every component of ``network`` has its probe unset.

    The scalar core checks every router/link/NIC slot; an array core (no
    ``routers`` attribute) checks that no probe, checker or profiler is
    attached and that the kernel's ``events_on`` / ``check_stride`` /
    ``profile_on`` switches — which make its cycle record events, walk
    the chip and read the clock — are off.
    """
    if getattr(network, "probe", None) is not None:
        raise OverheadGateError("network carries a probe by default")
    if not hasattr(network, "routers"):
        chip = network._kernel.chip
        for hot, what in ((network._checker, "an invariant checker"),
                          (chip.events_on, "kernel event recording on"),
                          (chip.check_stride, "kernel invariant walk on"),
                          (chip.profile_on, "kernel phase timers on")):
            if hot:
                raise OverheadGateError(
                    f"vectorized network has {what} by default")
        return
    for kind, parts in (("router", network.routers),
                        ("link", network.links), ("NIC", network.nics)):
        for i, part in enumerate(parts):
            if part._probe is not None:
                raise OverheadGateError(
                    f"{kind} {i} carries a probe by default")


#: The gate's two loads: low, where pseudo-circuits live long and are
#: reused, and saturation, where conflicts and credit exhaustion end them.
GATE_RATES = (0.02, 0.30)


def _gate_workload(backend: str, cycles: int, rate: float, seed: int,
                   probe=None):
    """The one gate workload: an 8x8 mesh under Pseudo+S+B (4 VCs of 4
    flits) built bare on ``backend``'s core, run for ``cycles`` of
    uniform traffic at ``rate`` and drained. With ``probe`` the run is
    checked: ``probe`` and what ``run_experiment(check=True)`` attaches
    (``repro.monitor.attach_checks``) observe it. Returns the network
    and the registry of its checks (``None`` for a bare run)."""
    config = NetworkConfig(num_vcs=4, buffer_depth=4, pseudo=PSEUDO_SB)
    topo = make_topology("mesh", 8, 8, 1)
    if backend == "scalar":
        net = Network(topo, config, seed=seed)
    else:
        from ..network.vectorized import VectorNetwork
        net = VectorNetwork(topo, config, seed=seed)
    registry = None
    if probe is not None:
        from ..monitor.registry import attach_checks
        registry = attach_checks(net, probe)
    traffic = SyntheticTraffic("uniform", topo.num_terminals, rate, 5,
                               seed=seed)
    net.stats.warmup_cycles = cycles // 5
    net.run(cycles, traffic)
    net.drain(max_cycles=500_000)
    return net, registry


def identity_check(cycles: int = 400, seed: int = 7,
                   backend: str = "scalar") -> dict:
    """The gate on ``backend``'s core, at each of ``GATE_RATES``: the
    gate workload run bare (asserted cold), then checked with every
    probe the core accepts beside the checks -- a ``TimeSeriesProbe``,
    and on the scalar core a ``FlitTracer``. Raises
    :class:`OverheadGateError` unless the checked run finishes, its
    stats are bit-identical to the bare run's, the checks found no
    violation and (scalar core) the traced pseudo-circuit terminations
    equal the counters. Each entry of ``runs`` holds its run's metrics
    document under ``metrics``."""
    runs = []
    for rate in GATE_RATES:
        where = f"{backend} at rate {rate:g}"
        bare, _ = _gate_workload(backend, cycles, rate, seed)
        assert_probes_cold(bare)
        series = TimeSeriesProbe(window=max(1, cycles // 16))
        tracer = FlitTracer() if backend == "scalar" else None
        try:
            net, registry = _gate_workload(
                backend, cycles, rate, seed,
                series if tracer is None else CompositeProbe(tracer, series))
            doc = registry.finish(net)
        except Exception as err:
            raise OverheadGateError(
                f"{where}: the observed run failed: {err}") from err
        want, got = bare.stats.fingerprint(), net.stats.fingerprint()
        if want != got:
            diff = {k: (v, got[k]) for k, v in want.items() if got[k] != v}
            raise OverheadGateError(
                f"{where}: stats diverged with observers attached: {diff}")
        if doc["violation_count"]:
            raise OverheadGateError(
                f"{where}: {doc['violation_count']} violations, first: "
                f"{doc['violations'][0]}")
        run = {"rate": rate, "series_windows": len(series.samples),
               "metrics": doc}
        if tracer is not None:
            traced = tracer.termination_counts
            if traced != doc["run"]["pc_terminations"]:
                raise OverheadGateError(
                    f"{where}: traced terminations {traced} != counters "
                    f"{doc['run']['pc_terminations']}")
            run["traced_events"] = sum(tracer.counts.values())
        else:
            doc["phase_profile"] = net.profile()
        runs.append(run)
    report = {"cycles": cycles, "stats_identical": True, "runs": runs}
    if backend != "scalar":
        report["step_kernel"] = net.step_kernel
    return report


def overhead_gate(cycles: int = 400, show: bool = True,
                  backend: str = "scalar") -> dict:
    """The structural + bit-identity gate on ``backend``'s core. An array
    core this process cannot build (no C compiler, no numpy) raises its
    refusal (``network.backend.REFUSALS``), after the gate's line says
    why."""
    gate = ("overhead gate" if backend == "scalar"
            else f"{backend} overhead gate")
    try:
        report = identity_check(cycles=cycles, backend=backend)
    except REFUSALS as refusal:
        if show:
            print(f"{gate}: refused — {refusal}")
        raise
    report["probes_cold"] = True
    if show:
        kernel = (f", step kernel {report['step_kernel']}"
                  if "step_kernel" in report else "")
        for run in report["runs"]:
            traced = (f"{run['traced_events']} traced events, "
                      if "traced_events" in run else "")
            print(f"{gate} at rate {run['rate']:g}: probes cold, stats "
                  f"bit-identical over {cycles} cycles ({traced}"
                  f"{run['series_windows']} series windows{kernel}), "
                  f"0 violations from "
                  f"{', '.join(run['metrics']['monitors'])}")
    return report


def _refuse_write(writer, record) -> None:
    """``TelemetryWriter.write`` while the off sweep runs."""
    raise OverheadGateError(f"a telemetry-off sweep wrote {record!r}")


def telemetry_cold_check() -> dict:
    """Assert the telemetry-off sweep is free and the on sweep only
    observes, raising :class:`OverheadGateError` on the first failure:

    * ``run_experiments`` defaults to ``telemetry=None``, and a
      default-built scheduler holds the off emitter, every method of
      which is the one that returns at once;
    * a telemetry-off sweep never calls ``TelemetryWriter.write``;
    * the same sweep with telemetry on returns bit-identical results and
      leaves a stream with one span per point.
    """
    from ..harness import parallel
    from ..harness.experiment import ExperimentConfig, clear_cache
    from ..telemetry import spans, stream

    default = inspect.signature(
        parallel.run_experiments).parameters["telemetry"].default
    if default is not None:
        raise OverheadGateError(
            f"run_experiments telemetry default is {default!r}, not None")
    scheduler = parallel._Scheduler(
        [], check=False, store=None, journal=None, resume=False,
        max_attempts=1, backoff_base=0.5, timeout=None, sleep=time.sleep)
    live = [name for name, member in vars(spans.Telemetry).items()
            if callable(member) and not name.startswith("_")
            and getattr(spans.OFF, name).__func__ is not spans._Off._nothing]
    if scheduler.tel is not spans.OFF or live:
        raise OverheadGateError(
            f"a default-built scheduler holds {scheduler.tel!r}, not the "
            f"off emitter (methods that do something: {live})")

    configs = [ExperimentConfig(topology="mesh", kx=4, ky=4, concentration=1,
                                routing="xy", vc_policy="static",
                                pattern="uniform", rate=0.1, packet_size=5,
                                synth_cycles=200, synth_warmup=50,
                                backend="scalar", seed=seed)
               for seed in (11, 12, 13, 14)]
    write = stream.TelemetryWriter.write
    stream.TelemetryWriter.write = _refuse_write
    try:
        clear_cache()
        off = parallel.run_experiments(configs, max_workers=1)
    finally:
        stream.TelemetryWriter.write = write
    with tempfile.TemporaryDirectory() as tmp:
        stream_path = os.path.join(tmp, "gate-telemetry.jsonl")
        clear_cache()
        on = parallel.run_experiments(configs, max_workers=1,
                                      telemetry=stream_path)
        records = stream.read_stream(stream_path)
    clear_cache()
    if off != on:
        raise OverheadGateError(
            "telemetry-on sweep results differ from telemetry-off")
    spans_seen = sum(record.get("ev") == "point" for record in records)
    if spans_seen != len(configs):
        raise OverheadGateError(
            f"expected {len(configs)} point spans, stream has {spans_seen}")
    return {"default_off": True, "scheduler_null": True,
            "results_identical": True, "points": len(configs),
            "stream_records": len(records)}
