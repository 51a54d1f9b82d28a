"""The instrumentation-overhead gate.

The layer's contract is *zero overhead when off*: a network built without
a probe must behave — and cost — exactly as if the layer did not exist.
The gate checks this two ways, on the scalar core (:func:`overhead_gate`)
and on the array core (:func:`vectorized_overhead_gate`):

1. **Structural** (:func:`assert_probes_cold`): a default-built network
   holds no probe on any router, link or NIC — a probe accidentally left
   attached (hot) fails deterministically, at any cycle count.
2. **Bit-identity** (:func:`identity_check`): the same workload run with
   probes disabled and with a full tracer + time-series stack attached
   produces identical ``NetworkStats`` fingerprints — instrumentation
   observes, never perturbs. The traced run also cross-checks the traced
   pseudo-circuit termination events against the aggregate counters.

``python -m repro bench`` runs both. What an *attached* probe costs is a
number, not a gate: ``instrument.probe_overhead_pct.scalar`` in the
``perf/`` ledger.
"""

from __future__ import annotations

from ..metrics.stats import NetworkStats
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

    Covers both cores: the scalar core checks every router/link/NIC
    slot; the vectorized cores (no ``routers`` attribute) check that
    the probe, invariant checker, hook tuple and phase profiler are all
    cold — their emission sites are guarded by the hook tuple the same
    way the scalar hot path is guarded by the probe slot.
    """
    if getattr(network, "probe", None) is not None:
        raise OverheadGateError("network carries a probe by default")
    if not hasattr(network, "routers"):
        for attr, what in (("_vprobe", "a vector probe"),
                           ("_checker", "an invariant checker"),
                           ("_prof", "a live phase profiler")):
            if getattr(network, attr, None) is not None:
                raise OverheadGateError(
                    f"vectorized network carries {what} by default")
        if getattr(network, "_vhooks", ()):
            raise OverheadGateError(
                "vectorized network has hook emission enabled by default")
        return
    for router in network.routers:
        if router._probe is not None:
            raise OverheadGateError(
                f"router {router.router_id} carries a probe by default")
    for link in network.links:
        if link._probe is not None:
            raise OverheadGateError(
                f"link {link.link_id} carries a probe by default")
    for nic in network.nics:
        if nic._probe is not None:
            raise OverheadGateError(
                f"NIC {nic.terminal} carries a probe by default")


def _run(cycles: int, rate: float, seed: int, probe=None) -> NetworkStats:
    config = NetworkConfig(num_vcs=4, buffer_depth=4, pseudo=PSEUDO_SB)
    topo = make_topology("mesh", 8, 8, 1)
    net = build_network(topo, config=config, seed=seed, probe=probe)
    traffic = SyntheticTraffic("uniform", topo.num_terminals, rate, 5,
                               seed=seed)
    net.stats.warmup_cycles = cycles // 5
    net.run(cycles, traffic)
    net.drain(max_cycles=500_000)
    return net.stats


def identity_check(cycles: int = 400, rate: float = 0.30,
                   seed: int = 7) -> dict:
    """Run the saturation workload bare and fully instrumented; raise
    unless the stats are bit-identical and the traced pseudo-circuit
    termination events reconcile with the aggregate counters."""
    bare = _run(cycles, rate, seed)
    tracer = FlitTracer()
    series = TimeSeriesProbe(window=max(1, cycles // 16))
    probed = _run(cycles, rate, seed,
                  probe=CompositeProbe(tracer, series))
    if bare.fingerprint() != probed.fingerprint():
        diff = {k: (v, probed.fingerprint()[k])
                for k, v in bare.fingerprint().items()
                if probed.fingerprint()[k] != v}
        raise OverheadGateError(
            f"stats diverged with probes attached: {diff}")
    traced = tracer.termination_counts
    aggregate = {reason.value: count
                 for reason, count in probed.pc_terminations.items()
                 if count}
    if traced != aggregate:
        raise OverheadGateError(
            f"traced terminations {traced} != counters {aggregate}")
    return {
        "cycles": cycles,
        "stats_identical": True,
        "traced_events": sum(tracer.counts.values()),
        "pc_terminations": dict(traced),
        "series_windows": len(series.samples),
    }


def _run_vectorized(cycles: int, rate: float, seed: int, probe=None,
                    check: bool = False):
    """Drive the gate workload on the vectorized core; returns the net."""
    from ..network.vectorized import VectorInvariantChecker, VectorNetwork
    config = NetworkConfig(num_vcs=4, buffer_depth=4, pseudo=PSEUDO_SB)
    topo = make_topology("mesh", 8, 8, 1)
    net = VectorNetwork(topo, config, seed=seed)
    if probe is not None:
        net.bind_probe(probe)
    if check:
        net.attach_checker(VectorInvariantChecker(strict=True))
        net.enable_profile()
    traffic = SyntheticTraffic("uniform", topo.num_terminals, rate, 5,
                               seed=seed)
    net.stats.warmup_cycles = cycles // 5
    net.run(cycles, traffic)
    net.drain(max_cycles=500_000)
    return net


def vectorized_identity_check(cycles: int = 400, rate: float = 0.30,
                              seed: int = 7) -> dict:
    """Run the saturation workload on the vectorized core bare and fully
    observed (``VectorSeriesProbe`` + strict ``VectorInvariantChecker`` +
    phase profiler); raise unless the stats are bit-identical and the
    checker swept clean."""
    from ..network.vectorized import VectorSeriesProbe
    bare = _run_vectorized(cycles, rate, seed).stats
    series = VectorSeriesProbe(window=max(1, cycles // 16))
    net = _run_vectorized(cycles, rate, seed, probe=series, check=True)
    if bare.fingerprint() != net.stats.fingerprint():
        diff = {k: (v, net.stats.fingerprint()[k])
                for k, v in bare.fingerprint().items()
                if net.stats.fingerprint()[k] != v}
        raise OverheadGateError(
            f"vectorized stats diverged with observability attached: "
            f"{diff}")
    checker = net._checker
    if checker.violations:
        raise OverheadGateError(
            f"vectorized invariant checker flagged the gate workload: "
            f"{checker.violations[0]}")
    return {
        "cycles": cycles,
        "stats_identical": True,
        "series_windows": len(series.samples),
        "checker_sweeps": checker.sweeps,
        "phase_profile": net.profile(),
        "step_kernel": net.step_kernel,
    }


def vectorized_overhead_gate(cycles: int = 400, show: bool = True) -> dict:
    """The structural + bit-identity gate for the vectorized core."""
    config = NetworkConfig(num_vcs=4, buffer_depth=4, pseudo=PSEUDO_SB)
    topo = make_topology("mesh", 8, 8, 1)
    from ..network.backend import BackendUnsupportedError
    from ..network.vectorized import VectorNetwork
    try:
        net = VectorNetwork(topo, config)
    except BackendUnsupportedError as refusal:
        # No array core on this install (no C compiler): nothing to
        # gate, and the reason belongs on the gate's own line.
        if show:
            print(f"vectorized overhead gate: refused — {refusal}")
        raise
    assert_probes_cold(net)
    report = vectorized_identity_check(cycles=cycles)
    report["probes_cold"] = True
    if show:
        print(f"vectorized overhead gate: probes cold, stats "
              f"bit-identical over {cycles} cycles "
              f"({report['series_windows']} series windows, "
              f"{report['checker_sweeps']} checker sweeps, "
              f"step kernel {report['step_kernel']})")
    return report


def overhead_gate(cycles: int = 400, show: bool = True) -> dict:
    """Run the scale-independent checks (structural + bit-identity)."""
    config = NetworkConfig(num_vcs=4, buffer_depth=4, pseudo=PSEUDO_SB)
    topo = make_topology("mesh", 8, 8, 1)
    assert_probes_cold(build_network(topo, config=config))
    report = identity_check(cycles=cycles)
    report["probes_cold"] = True
    if show:
        print(f"overhead gate: probes cold, stats bit-identical over "
              f"{cycles} cycles ({report['traced_events']} traced events, "
              f"{report['series_windows']} series windows)")
    return report
