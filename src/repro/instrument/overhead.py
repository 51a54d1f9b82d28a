"""The instrumentation-overhead gate, one for every core.

The layer's contract is *zero overhead when off*: a network built without
a probe must behave — and cost — exactly as if the layer did not exist.
:func:`overhead_gate` checks it on the core ``backend`` names two ways:

1. **Structural** (:func:`assert_probes_cold`): a default-built network
   has nothing attached and no event or clock switch on, so a probe
   accidentally left attached (hot) fails deterministically.
2. **Bit-identity** (:func:`identity_check`): the gate workload run bare
   and with every observer the core accepts — tracer + time series on
   the scalar core, time series + strict invariant checker + phase
   profiler on an array core — gives identical ``NetworkStats``
   fingerprints, and the observers find nothing wrong.

``python -m repro bench`` runs both. What an *attached* probe costs is a
number, not a gate: ``instrument.probe_overhead_pct.scalar`` in the
``perf/`` ledger.
"""

from __future__ import annotations

from ..network.backend import BackendUnsupportedError
from ..network.config import PSEUDO_SB, NetworkConfig
from ..network.simulator import build_network
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
    attached and that the kernel's ``events_on`` / ``profile_on``
    switches — which make its cycle record events and read the clock —
    are off.
    """
    if getattr(network, "probe", None) is not None:
        raise OverheadGateError("network carries a probe by default")
    if not hasattr(network, "routers"):
        chip = network._kernel.chip
        for hot, what in ((network._vprobe, "a vector probe"),
                          (network._checker, "an invariant checker"),
                          (network._vhooks, "hook emission enabled"),
                          (chip.events_on, "kernel event recording on"),
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


def _gate_workload(backend: str, cycles: int, rate: float, seed: int,
                   probe=None, checker=None):
    """The one gate workload: an 8x8 mesh under Pseudo+S+B (4 VCs of 4
    flits) built bare on ``backend``'s core, ``probe`` bound (an array
    core: and ``checker`` attached with the phase profiler on), run for
    ``cycles`` of uniform traffic at ``rate`` and drained. Returns the
    network. The overhead gate and ``repro.monitor.check`` both run it."""
    config = NetworkConfig(num_vcs=4, buffer_depth=4, pseudo=PSEUDO_SB)
    topo = make_topology("mesh", 8, 8, 1)
    if backend == "scalar":
        net = build_network(topo, config=config, seed=seed)
    else:
        from ..network.vectorized import VectorNetwork
        net = VectorNetwork(topo, config, seed=seed)
    if probe is not None:
        net.bind_probe(probe)
    if checker is not None:
        net.attach_checker(checker)
        net.enable_profile()
    traffic = SyntheticTraffic("uniform", topo.num_terminals, rate, 5,
                               seed=seed)
    net.stats.warmup_cycles = cycles // 5
    net.run(cycles, traffic)
    net.drain(max_cycles=500_000)
    return net


def identity_check(cycles: int = 400, rate: float = 0.30, seed: int = 7,
                   backend: str = "scalar") -> dict:
    """Run the saturation workload on ``backend``'s core bare (asserted
    cold) and with every observer that core accepts; raise unless the
    stats are bit-identical and the observers found nothing wrong (the
    traced pseudo-circuit terminations reconcile with the counters; the
    invariant checker swept clean)."""
    bare = _gate_workload(backend, cycles, rate, seed)
    assert_probes_cold(bare)
    series = TimeSeriesProbe(window=max(1, cycles // 16))
    if backend == "scalar":
        tracer = FlitTracer()
        net = _gate_workload(backend, cycles, rate, seed,
                             CompositeProbe(tracer, series))
    else:
        from ..network.vectorized import VectorInvariantChecker
        checker = VectorInvariantChecker(strict=True)
        net = _gate_workload(backend, cycles, rate, seed, series, checker)
    want, got = bare.stats.fingerprint(), net.stats.fingerprint()
    if want != got:
        diff = {k: (v, got[k]) for k, v in want.items() if got[k] != v}
        raise OverheadGateError(
            f"{backend} stats diverged with observers attached: {diff}")
    report = {"cycles": cycles, "stats_identical": True,
              "series_windows": len(series.samples)}
    if backend == "scalar":
        traced = tracer.termination_counts
        aggregate = {reason.value: count
                     for reason, count in net.stats.pc_terminations.items()
                     if count}
        if traced != aggregate:
            raise OverheadGateError(
                f"traced terminations {traced} != counters {aggregate}")
        report.update(traced_events=sum(tracer.counts.values()),
                      pc_terminations=dict(traced))
    else:
        if checker.violations:
            raise OverheadGateError(
                f"vectorized invariant checker flagged the gate workload: "
                f"{checker.violations[0]}")
        report.update(checker_sweeps=checker.sweeps,
                      phase_profile=net.profile(),
                      step_kernel=net.step_kernel)
    return report


def overhead_gate(cycles: int = 400, show: bool = True,
                  backend: str = "scalar") -> dict:
    """The structural + bit-identity gate on ``backend``'s core. An array
    core this process cannot build (no C compiler) raises
    ``BackendUnsupportedError``, after the gate's line says why."""
    gate = ("overhead gate" if backend == "scalar"
            else f"{backend} overhead gate")
    try:
        report = identity_check(cycles=cycles, backend=backend)
    except BackendUnsupportedError as refusal:
        if show:
            print(f"{gate}: refused — {refusal}")
        raise
    report["probes_cold"] = True
    if show:
        windows = f"{report['series_windows']} series windows"
        seen = (f"{report['traced_events']} traced events, {windows}"
                if backend == "scalar" else
                f"{windows}, {report['checker_sweeps']} checker sweeps, "
                f"step kernel {report['step_kernel']}")
        print(f"{gate}: probes cold, stats bit-identical over {cycles} "
              f"cycles ({seen})")
    return report
