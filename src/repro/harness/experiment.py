"""Experiment runner: a declarative config -> a simulated network -> results.

``ExperimentConfig`` captures everything the paper varies: topology,
routing, VC allocation policy, pseudo-circuit scheme, and the traffic
source (a benchmark trace or a synthetic pattern). ``run_experiment``
builds the network, drives it, and returns a ``Result`` with the metrics
every figure needs. Traces and completed runs are memoized per process so
overlapping figures (e.g. Fig. 9 and Fig. 10 use the same grid of runs)
pay for each simulation once. The chip a point runs on — topology,
routing instance and, through it, the compiled routing tables — is a pure
function of the config's shape fields and is likewise built once per
process (``chip_plan``) and shared read-only by every network on it. The
scalar network wired on that chip is reused as well: a point's run ends
with the network idle again, and the next point of the same wiring
resets it instead of constructing it (``_idle_networks``).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import SimpleNamespace

from ..energy import DEFAULT_ENERGY_MODEL
from ..evc import EvcMesh, EvcRouting
from ..instrument import run_manifest
from ..network.backend import (BackendUnsupportedError, backend_of,
                               choose_backend, resolve_backend)
from ..network.config import NetworkConfig, PseudoCircuitConfig
from ..network.simulator import Network
from ..routing import make_routing
from ..topology import make_topology
from ..traffic.synthetic import SyntheticTraffic
from ..traffic.trace import Trace, TraceReplayTraffic
from .traces import get_trace


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation point."""

    # Network structure.
    topology: str = "cmesh"
    kx: int = 4
    ky: int = 4
    concentration: int = 4
    # Chiplet-only structure (ignored by other topologies): number of
    # compute dies and the wire latency of each die<->IO boundary link.
    chiplets: int = 4
    chiplet_link_latency: int = 4
    routing: str = "o1turn"
    vc_policy: str = "dynamic"
    scheme: PseudoCircuitConfig = field(default_factory=PseudoCircuitConfig)
    num_vcs: int = 4
    buffer_depth: int = 4
    # Traffic: either a benchmark trace or a synthetic pattern.
    benchmark: str | None = None
    trace_cycles: int = 2000
    trace_warmup: int = 400
    pattern: str | None = None
    rate: float = 0.1
    packet_size: int = 5
    synth_cycles: int = 1500
    synth_warmup: int = 300
    mshrs: int = 4   # NIC self-throttling during trace replay
    seed: int = 1
    # Network core: "scalar", "vectorized", "batched" or "auto"; None
    # picks up the process default
    # (repro.network.backend.set_default_backend). "auto" and "batched"
    # are kept as-is in store keys (a point's identity includes the
    # *policy* it ran under); build_network resolves them to a concrete
    # core per point, and the scheduler groups compatible
    # batched/auto points into BatchNetwork lanes.
    backend: str | None = None

    def __post_init__(self):
        if (self.benchmark is None) == (self.pattern is None):
            raise ValueError(
                "configure exactly one of benchmark= or pattern=")
        # Resolve the backend at construction so equality, run-cache and
        # store keys always carry a concrete backend name — results from
        # different backends never alias, whatever the process default
        # was when either was computed.
        object.__setattr__(self, "backend", resolve_backend(self.backend))

    @property
    def label(self) -> str:
        """Human-readable point label (topology/routing/VA/scheme/traffic)."""
        traffic = self.benchmark or f"{self.pattern}@{self.rate:g}"
        return (f"{self.topology}/{self.routing}/{self.vc_policy}/"
                f"{self.scheme.label}/{traffic}")

    def with_scheme(self, scheme: PseudoCircuitConfig) -> "ExperimentConfig":
        """This config with the pseudo-circuit scheme replaced."""
        return replace(self, scheme=scheme)


@dataclass(frozen=True)
class Result:
    """Metrics extracted from one finished simulation."""

    config: ExperimentConfig
    avg_latency: float
    avg_network_latency: float
    avg_hops: float
    reusability: float
    buffer_bypass_rate: float
    e2e_locality: float
    xbar_locality: float
    packets: int
    flit_hops: int
    energy_pj: float
    energy_breakdown: dict
    pc_restored: int
    # Run provenance (repro.instrument.run_manifest). Excluded from
    # equality so results compare by metrics regardless of which machine
    # or commit produced them.
    manifest: dict | None = field(default=None, compare=False)
    # Metrics document from a ``check=True`` run (repro.monitor); absent
    # on unchecked runs. Excluded from equality for the same reason.
    monitor_report: dict | None = field(default=None, compare=False)

    @classmethod
    def from_network(cls, config: ExperimentConfig, net: Network,
                     manifest: dict | None = None,
                     monitor_report: dict | None = None) -> "Result":
        """Extract the paper's metrics from a finished simulation."""
        return cls.from_stats(config, net.stats, manifest=manifest,
                              monitor_report=monitor_report)

    @classmethod
    def from_stats(cls, config: ExperimentConfig, stats,
                   manifest: dict | None = None,
                   monitor_report: dict | None = None) -> "Result":
        """Extract the paper's metrics from a finished NetworkStats
        (the per-lane extraction path of batched runs)."""
        energy = DEFAULT_ENERGY_MODEL.router_energy(stats)
        return cls(
            config=config,
            avg_latency=stats.avg_latency,
            avg_network_latency=stats.avg_network_latency,
            avg_hops=stats.avg_hops,
            reusability=stats.reusability,
            buffer_bypass_rate=stats.buffer_bypass_rate,
            e2e_locality=stats.e2e_locality,
            xbar_locality=stats.xbar_locality,
            packets=stats.measured_packets,
            flit_hops=stats.flit_hops,
            energy_pj=energy["total"],
            energy_breakdown=energy,
            pc_restored=stats.pc_restored,
            manifest=manifest,
            monitor_report=monitor_report,
        )


_run_cache: dict[ExperimentConfig, Result] = {}

#: Process-wide ResultStore backing the memo (None = memory only).
_default_store = None


def set_default_store(store) -> None:
    """Install the process-wide result store behind the run cache.

    With a store installed, every cache miss consults the store (a
    durable, content-addressed hit is folded into the memo) and every
    computed result is written through, so repeated ``figure all``
    invocations across *processes* become near-free cache hits. Pass
    ``None`` to go back to memory-only caching. Checked runs
    (``check=True``) bypass both layers.
    """
    global _default_store
    _default_store = store


def default_store():
    """The process-wide result store, or ``None`` (memory-only cache)."""
    return _default_store


#: Config fields that fix the chip: the topology and the routing built
#: on it (chiplets/chiplet_link_latency only matter to ``chiplet``).
CHIP_FIELDS = ("topology", "kx", "ky", "concentration", "chiplets",
               "chiplet_link_latency", "routing")


@lru_cache(maxsize=8)
def _chip_plan(topology, kx, ky, concentration, chiplets,
               chiplet_link_latency, routing):
    if topology == "evc_mesh":
        topo = EvcMesh(kx, ky, concentration)
        return topo, EvcRouting(topo)
    topo = make_topology(topology, kx, ky, concentration,
                         chiplets=chiplets,
                         chiplet_link_latency=chiplet_link_latency)
    return topo, make_routing(routing, topo)


def chip_plan(config: ExperimentConfig):
    """The ``(topology, routing instance)`` ``config`` runs on.

    Both are pure functions of ``CHIP_FIELDS`` and immutable once built,
    so a process builds each shape once and every later point on it —
    scalar, vectorized or a batch lane — shares the same two objects
    and, through the routing instance, the same compiled routing tables
    (``routing.compiled``). The memo keeps the 8 most recently used
    shapes; an evicted shape is simply rebuilt. It holds no results, so
    ``clear_cache()`` leaves it alone.
    """
    return _chip_plan(*(getattr(config, name) for name in CHIP_FIELDS))


#: Idle scalar networks of this process, least recently used first. A
#: ``Network``'s wiring (~1 300 objects on a 4x4 mesh) depends only on
#: the key below, so ``run_experiment`` takes a finished one out, resets
#: it, runs, and puts it back once the run drained clean; a run that
#: raised never puts its network back. Two entries hold the
#: baseline/pseudo pair sweeps alternate between (0.6 MB each on a 4x4
#: mesh, 10.5 MB on 16x16). Like the chip plan it holds no results, so
#: ``clear_cache()`` leaves it alone and forked workers inherit it.
_idle_networks: OrderedDict = OrderedDict()
_IDLE_NETWORKS_MAX = 2


def _idle_key(config: ExperimentConfig, net_cfg: NetworkConfig):
    return (tuple(getattr(config, name) for name in CHIP_FIELDS), net_cfg,
            config.vc_policy)


def _park_network(config: ExperimentConfig, net: Network) -> None:
    """Hand a cleanly drained scalar network back for the next point."""
    key = _idle_key(config, net.config)
    _idle_networks[key] = net
    _idle_networks.move_to_end(key)
    if len(_idle_networks) > _IDLE_NETWORKS_MAX:
        _idle_networks.popitem(last=False)  # the least recently returned


def build_network(config: ExperimentConfig, probe=None) -> Network:
    """Construct the simulated network one experiment point describes.

    ``config.backend`` picks the core: the scalar object-per-router
    ``Network`` or the array ``VectorNetwork`` (bit-identical stats; see
    ARCHITECTURE.md "Backends"). ``"batched"`` runs single points on
    the vectorized core (lane grouping happens in the scheduler, not
    here); ``"auto"`` picks per point via ``choose_backend`` and — as
    its documented policy, not a silent fallback — takes the scalar
    core wherever the vectorized core refuses the configuration or the
    process (no C compiler to build its cycle with). For the explicit
    vectorized/batched backends both still raise
    ``BackendUnsupportedError``. Always a new network:
    ``run_experiment`` reuses idle scalar ones, callers of this never
    see them.
    """
    return _network_for(config, probe, reuse=False)


def _net_config(config: ExperimentConfig) -> NetworkConfig:
    return NetworkConfig(
        num_vcs=config.num_vcs, buffer_depth=config.buffer_depth,
        pseudo=config.scheme,
        mshrs=config.mshrs if config.benchmark is not None else 0)


def _network_for(config: ExperimentConfig, probe, reuse: bool):
    """``build_network``; with ``reuse``, a point that resolves to the
    scalar core takes the idle network of its wiring, reset to its seed,
    when there is one."""
    net_cfg = _net_config(config)
    topo, routing = chip_plan(config)
    kwargs = dict(routing=routing, vc_policy=config.vc_policy,
                  seed=config.seed, probe=probe)
    backend = resolve_backend(config.backend)
    scalar_fallback = backend == "auto"
    if scalar_fallback:
        backend = choose_backend(
            terminals=topo.num_terminals,
            rate=config.rate if config.benchmark is None else None,
            pseudo=config.scheme.enabled)
    if backend in ("vectorized", "batched"):
        from ..network.vectorized import VectorNetwork
        try:
            return VectorNetwork(topo, net_cfg, **kwargs)
        except BackendUnsupportedError:
            if not scalar_fallback:
                raise
    if reuse:
        net = _idle_networks.pop(_idle_key(config, net_cfg), None)
        if net is not None:
            net.reset(config.seed)
            return net
    return Network(topo, net_cfg, **kwargs)


def _core_fields(net) -> dict:
    """Manifest fields naming the core that ran a point, read after
    the run: ``backend``, and for an array core ``step_kernel`` —
    ``c:<artifact key>``, the build of ``kernel.c`` it stepped through
    (``network/vectorized/kernel.py``) — and ``traffic_source``, which
    side drew the traffic: ``kernel`` (the compiled ``source_tick``) or
    ``python`` (``tick`` into ``inject``). A scalar network has no such
    artifact and neither field."""
    fields = {"backend": backend_of(net)}
    for name in ("step_kernel", "traffic_source"):
        if hasattr(net, name):
            fields[name] = getattr(net, name)
    return fields


def _attach_monitors(net, probe, check_stride: int):
    """Attach the ``--check`` suite to a freshly built network.

    Scalar cores bind the monitor registry's composite probe (merged
    with any user probe); vectorized/batched cores attach the
    array-native ``VectorInvariantChecker`` and switch on the per-phase
    profiler instead. Returns the registry whose ``finish``/``snapshot``
    produce the run's metrics document.
    """
    if hasattr(net, "attach_checker"):
        from ..monitor import MetricsRegistry
        from ..network.vectorized import VectorInvariantChecker
        if probe is not None:
            net.bind_probe(probe)
        checker = VectorInvariantChecker(strict=True, stride=check_stride)
        net.attach_checker(checker)
        net.enable_profile()
        return MetricsRegistry([checker])
    from ..instrument import CompositeProbe
    from ..monitor import default_registry
    registry = default_registry(strict=True)
    monitor_probe = registry.probe()
    net.bind_probe(monitor_probe if probe is None
                   else CompositeProbe(probe, monitor_probe))
    return registry


def run_experiment(config: ExperimentConfig, *, use_cache: bool = True,
                   probe=None, check: bool = False,
                   check_stride: int = 1) -> Result:
    """Simulate one configuration (memoized per process).

    ``probe`` attaches an instrumentation probe for this run; probed runs
    never read or populate the memo (the probe observes the simulation, so
    a cached result would silently skip it). ``check=True`` additionally
    attaches invariant checking — the full scalar monitor suite
    (``repro.monitor.default_registry``) on the scalar core, the
    array-native ``VectorInvariantChecker`` sweeping every
    ``check_stride`` cycles on the vectorized cores; both strict (the
    first violation raises) — and stores the metrics document on
    ``Result.monitor_report``.
    """
    if probe is not None or check:
        use_cache = False
    if use_cache:
        hit = cached(config)
        if hit is not None:
            return hit
    start = time.perf_counter()
    # Monitored runs get a network of their own, before and after: what a
    # probe or monitor sees must not depend on what ran here earlier. A
    # checked one is built bare: monitors attach after construction so
    # the vector cores take the checker path, not a probe refusal.
    reuse = probe is None and not check
    net = _network_for(config, None if check else probe, reuse)
    (result,) = _simulate([config], net, start, probe=probe, check=check,
                          check_stride=check_stride, park=reuse)
    if use_cache:
        cache_result(result)
    return result


#: Config fields every lane of one batch must share (the chip shape the
#: replicated layout is built from). pattern/rate/packet_size/seed and
#: the cycle/warmup windows may vary per lane.
BATCH_KEY_FIELDS = CHIP_FIELDS + ("vc_policy", "scheme", "num_vcs",
                                  "buffer_depth")


def batch_key(config: ExperimentConfig):
    """Grouping key for batched execution, or ``None`` if unbatchable.

    Only synthetic-traffic points that opted into batching (backend
    ``batched`` or ``auto``) are grouped; trace replay needs MSHR
    self-throttling and per-trace state, and ``evc_mesh`` routing is
    dynamic-only — both always run solo.
    """
    if config.benchmark is not None or config.topology == "evc_mesh":
        return None
    if resolve_backend(config.backend) not in ("batched", "auto"):
        return None
    return tuple(getattr(config, f) for f in BATCH_KEY_FIELDS)


def run_batch_experiments(configs, *, check: bool = False,
                          check_stride: int = 1):
    """Simulate compatible points as lanes of one ``BatchNetwork`` run.

    All configs must share ``batch_key`` (same chip shape, scheme and
    VC policy); pattern, rate, packet size, seed and the cycle/warmup
    windows may vary per lane. Returns one ``Result`` per config, in
    order, each bit-identical to ``run_experiment`` of the same point
    (the batched-parity suite locks this in) and naming the ``batched``
    core, a single lane included. No cache layer is read or written:
    the scheduler resolves those first and writes lanes through after.

    ``check=True`` attaches one ``VectorInvariantChecker`` to the shared
    chip (whole-array sweeps every ``check_stride`` cycles cover every
    lane at once; violations carry the offending lane index) and gives
    each result a per-lane metrics document on ``monitor_report``.
    """
    if not configs:
        return []
    keys = {batch_key(cfg) for cfg in configs}
    if len(keys) != 1 or None in keys:
        raise ValueError(
            "configs are not batch-compatible (one shared batch_key "
            "required)")
    first = configs[0]
    topo, routing = chip_plan(first)
    from ..network.vectorized import BatchNetwork
    start = time.perf_counter()
    net = BatchNetwork(topo, _net_config(first),  # synthetic: no MSHRs
                       routing=routing, vc_policy=first.vc_policy,
                       seeds=[cfg.seed for cfg in configs])
    return _simulate(configs, net, start, check=check,
                     check_stride=check_stride)


def _simulate(configs, net, start: float, *, probe=None,
              check: bool = False, check_stride: int = 1,
              park: bool = False) -> list[Result]:
    """Everything after construction, for a solo point and the lanes of
    a batch alike: monitors, traffic, drain, the end-of-run invariant
    sweep, then one manifest and one ``Result`` per config. ``net`` was
    built for ``configs`` at ``start`` — a ``BatchNetwork`` with a lane
    per config, else the one config's own network, which ``park`` hands
    back to ``_idle_networks`` if it is scalar and drained clean.
    """
    first = configs[0]
    batched = backend_of(net) == "batched"
    registry = _attach_monitors(net, probe, check_stride) if check else None
    if first.benchmark is not None:
        _replay(net, get_trace(first.benchmark, cycles=first.trace_cycles,
                               warmup=first.trace_warmup, seed=first.seed))
    else:
        traffics = [SyntheticTraffic(cfg.pattern, net.topology.num_terminals,
                                     cfg.rate, cfg.packet_size, seed=cfg.seed)
                    for cfg in configs]
        if batched:
            net.run_batch(traffics, [cfg.synth_cycles for cfg in configs],
                          [cfg.synth_warmup for cfg in configs])
        else:
            net.stats.warmup_cycles = first.synth_warmup
            net.run(first.synth_cycles, traffics[0])
        net.drain(max_cycles=500_000)
    net.check_invariants()
    core = _core_fields(net)
    prof_doc = None
    if registry is not None:
        for monitor in registry.monitors:
            monitor.finish(net)
        if hasattr(net, "profile"):  # the array cores' phase timers
            prof_doc = net.profile()
    wall = time.perf_counter() - start
    lanes = len(configs)
    results = []
    for lane, cfg in enumerate(configs):
        stats = net.lane_stats(lane) if batched else net.stats
        where = {"batch_lanes": lanes, "batch_lane": lane} if batched else {}
        monitor_report = None
        if registry is not None:
            monitor_report = registry.snapshot(
                SimpleNamespace(stats=stats, cycle=net.cycle),
                backend=core["backend"])
            monitor_report.update(where)
            if prof_doc is not None:
                monitor_report["phase_profile"] = prof_doc
        manifest = run_manifest(cfg, seed=cfg.seed, cycles=net.cycle,
                                wall_s=wall / lanes,
                                extra={**core, **where})
        results.append(Result.from_stats(cfg, stats, manifest=manifest,
                                         monitor_report=monitor_report))
    if park and type(net) is Network:
        _park_network(first, net)  # drained clean: fit for the next point
    return results


def _replay(net: Network, trace: Trace) -> None:
    replay = TraceReplayTraffic(trace)
    while not replay.exhausted:
        replay.tick(net, net.cycle)
        net.step()
        nxt = replay.next_injection_cycle(net.cycle)
        if nxt is not None:
            # Idle gaps between scheduled injections are skipped outright.
            net.fast_forward(nxt, nxt)
    net.drain(max_cycles=500_000)


def memo_hit(config: ExperimentConfig) -> Result | None:
    """The in-process memo entry for ``config``; the store is untouched.

    Telemetry uses this to attribute cache resolutions to the right
    tier: a ``memo`` hit answered from process memory versus a
    ``store`` hit that paid a disk read — ``cached`` alone cannot tell
    them apart (and bumps the store's miss counter while looking).
    """
    return _run_cache.get(config)


def backend_decision(config: ExperimentConfig, lanes: int = 1) -> dict:
    """What the selector made of a point, for a unit of ``lanes``: the
    ``policy`` it ran under and, for ``auto``,
    ``network.backend.explain_choice`` (core chosen, offered load, the
    crossover it was compared against; terminals read off the chip plan,
    not re-derived). The core that *ran* is ``manifest["backend"]`` and
    is not re-modelled here: an ``auto`` point the array core refused
    says ``chosen: vectorized`` here and ``scalar`` there.
    """
    policy = resolve_backend(config.backend)
    if policy != "auto":
        return {"policy": policy, "reason": "explicit"}
    from ..network.backend import explain_choice
    decision = explain_choice(
        terminals=chip_plan(config)[0].num_terminals,
        rate=config.rate if config.benchmark is None else None,
        pseudo=config.scheme.enabled, batch=lanes)
    decision["policy"] = "auto"
    return decision


def cached(config: ExperimentConfig, store=None) -> Result | None:
    """Return the cached result for ``config``, if any.

    The in-process memo is consulted first; on a miss, the explicit
    ``store`` (or the process-wide default store) is queried by content
    address (``store_hit``).
    """
    hit = _run_cache.get(config)
    if hit is not None:
        return hit
    store = store if store is not None else _default_store
    if store is None:
        return None
    from ..store import store_key
    hit = store_hit(config, store_key(config), store)
    return None if hit is None else hit[0]


def store_hit(config: ExperimentConfig, key: str,
              store) -> tuple[Result, str] | None:
    """``store``'s result for ``config`` under its ``store_key`` ``key``,
    with the verified canonical payload text it was read from (so a
    caller that journals the hit re-records those bytes instead of
    serializing the result again).

    For callers that already hold the key (the scheduler computes each
    point's once). A durable hit is deserialized, folded into the memo,
    and returned — corrupt store entries read back as misses (the store
    quarantines them), so callers transparently recompute.
    """
    hit = store.get_with_text(key)
    if hit is None:
        return None
    from ..store import payload_to_result
    try:
        result = payload_to_result(hit[0])
    except (KeyError, TypeError, ValueError):
        return None  # forward-incompatible payload: recompute
    _run_cache[config] = result
    return result, hit[1]


def cache_result(result: Result, store=None) -> None:
    """Fold a computed result into the memo and write it through.

    With a ``store`` (explicit or the process-wide default) the result
    is also persisted under its content-addressed key, making it
    durable across processes.
    """
    store = store if store is not None else _default_store
    if store is None:
        _run_cache[result.config] = result
    else:
        from ..store import result_to_text, store_key
        write_through(result, store_key(result.config),
                      result_to_text(result), store)


def write_through(result: Result, key: str, text: str, store) -> None:
    """Fold ``result`` into the memo and put ``text``, its
    ``result_to_text`` form, in ``store`` under ``key``, its config's
    ``store_key`` (see ``store_hit``). Callers that also journal the
    point encode it once and hand the same text to both."""
    _run_cache[result.config] = result
    store.put_text(key, text, label=result.config.label)


def clear_cache() -> None:
    """Empty the in-process run memo (the default store, the chip plan
    and the idle networks hold no results and are untouched)."""
    _run_cache.clear()
