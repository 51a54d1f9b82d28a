"""Experiment runner: a declarative config -> a simulated network -> results.

``ExperimentConfig`` captures everything the paper varies: topology,
routing, VC allocation policy, pseudo-circuit scheme, and the traffic
source (a benchmark trace or a synthetic pattern). ``run_experiment``
builds the network, drives it, and returns a ``Result`` with the metrics
every figure needs. Traces and completed runs are memoized per process so
overlapping figures (e.g. Fig. 9 and Fig. 10 use the same grid of runs)
pay for each simulation once. Which tier answers a point (a resumed
journal, the memo, the store) and where a result goes (the memo, the
store) is decided in one place, ``resolve`` / ``persist``, for
``run_experiment`` and the sweep scheduler alike. The chip a point runs
on — topology, routing instance and, through it, the compiled routing
tables — is a pure function of the config's shape fields and is
likewise built once per process (``chip_plan``) and shared read-only by
every network on it. The network built on that chip is reused as well,
on every core and whether or not anything observes the point: a point's
run ends with the network idle again, and the next point of the same
shape resets it instead of constructing it (``_idle_networks``).
Networks are built bare; what observes a point attaches to its network
in one place (``_observe``), where the ``auto`` rule may still fall back
to the scalar core.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import SimpleNamespace
from typing import TYPE_CHECKING

from ..energy import DEFAULT_ENERGY_MODEL
from ..instrument.provenance import run_manifest
from ..network.backend import REFUSALS, backend_of, resolve_backend
from ..network.config import NetworkConfig, PseudoCircuitConfig
from ..routing import make_routing
from ..store import payload_to_result, result_to_text, store_key
from ..topology import TOPOLOGY_REGISTRY, check_routing, make_topology
from ..traffic.synthetic import SyntheticTraffic
from .traces import get_trace

if TYPE_CHECKING:
    from ..network.simulator import Network


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
    # Network core: "scalar", "vectorized" or "auto"; None picks up the
    # process default (repro.network.backend.set_default_backend).
    # "auto" is kept as-is in store keys (a point's identity includes
    # the *policy* it ran under): the array core answers it wherever it
    # accepts the point, the scalar core elsewhere, and the scheduler
    # groups compatible auto points into BatchNetwork lanes.
    backend: str | None = None

    def __post_init__(self):
        if (self.benchmark is None) == (self.pattern is None):
            raise ValueError(
                "configure exactly one of benchmark= or pattern=")
        if self.topology == "evc_mesh":
            from ..evc import check_evc_point
            check_evc_point(self.scheme.enabled, self.routing)
        check_routing(self.topology, self.routing)
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


#: The result memo: ``persist`` is its one writer, ``clear_cache`` empties it.
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
        from ..evc.routing import EvcRouting
        from ..evc.topology import EvcMesh
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


#: Idle networks of this process, of every core, least recently used
#: first: ``run_experiment`` and ``run_batch_experiments`` take one out
#: (``_lease``), reset it to the point, and put it back once the run
#: drained clean, observed or not (detached from what observed it) —
#: never after a run that raised, nor for ``build_network``.
#: Two entries hold what sweeps alternate
#: between: a scalar baseline/pseudo pair (10.5 MB each on 16x16), or the
#: 8x8 and 16x16 array chips of ``sat_points`` serving every scheme. It
#: holds no results (``clear_cache()`` leaves it); forked workers inherit it.
_idle_networks: OrderedDict = OrderedDict()
_IDLE_NETWORKS_MAX = 2


def _idle_key(config: ExperimentConfig, net_cfg: NetworkConfig, cls=None,
              lanes: int = 1):
    """A scalar ``Network``'s wiring depends on its whole config; an
    array core ``cls``'s on the layout fields, ``lanes`` and the kernel
    build a construction would load now (``reset`` sets the rest)."""
    chip = tuple(getattr(config, name) for name in CHIP_FIELDS)
    if cls is None:
        return chip, net_cfg, config.vc_policy
    from ..network.vectorized import core
    layout = replace(net_cfg, pseudo=PseudoCircuitConfig(), mshrs=0)
    return chip, layout, cls.__name__, lanes, core.load_kernel().status


def _lease(key, build, *reset):
    """The network idle under ``key``, out of the pool and
    ``reset(*reset)``, else ``build()``; and whether it was ``"leased"``
    or ``"built"``."""
    net = _idle_networks.pop(key, None)
    if net is None:
        return build(), "built"
    net.reset(*reset)
    return net, "leased"


def _new(key, build, *reset):
    """``_lease`` for ``build_network``: always ``build()``."""
    return build(), "built"


def build_network(config: ExperimentConfig) -> Network:
    """Construct the simulated network one experiment point describes.

    ``config.backend`` picks the core: the scalar object-per-router
    ``Network`` or the array ``VectorNetwork`` (bit-identical stats; see
    ARCHITECTURE.md "Backends"). ``"auto"`` builds the array core
    wherever it accepts the point and the scalar core where it refuses
    (``network.backend.REFUSALS``); an explicit ``"vectorized"`` raises
    the refusal. Always a new network, bare: ``run_experiment`` reuses
    idle ones, callers of this never see them.
    """
    return _network_for(config, _new)[0]


def _net_config(config: ExperimentConfig) -> NetworkConfig:
    return NetworkConfig(
        num_vcs=config.num_vcs, buffer_depth=config.buffer_depth,
        pseudo=config.scheme,
        mshrs=config.mshrs if config.benchmark is not None else 0)


def _network_for(config: ExperimentConfig, lease=_lease, probe=None,
                 check: bool = False, stride: int = 1):
    """The network ``config`` runs on, as ``lease`` (``_lease`` or
    ``_new``) answers, with ``_observe``'s observers attached: ``(net,
    how, key, registry, refused)`` -- ``key`` the one it goes back to
    the pool under, ``refused`` the message of the refusal an ``auto``
    point fell back to the scalar core on (``None``: no fallback). The
    array core may refuse the chip or, once leased or built, the probe:
    either way an ``auto`` point goes to the scalar core, and the array
    chip, nothing bound to it, is dropped."""
    net_cfg = _net_config(config)
    topo, routing = chip_plan(config)
    kwargs = dict(routing=routing, vc_policy=config.vc_policy,
                  seed=config.seed)
    refused = None
    if config.backend != "scalar":
        try:
            from ..network.vectorized import VectorNetwork
            key = _idle_key(config, net_cfg, VectorNetwork)
            net, how = lease(key, lambda: VectorNetwork(
                topo, net_cfg, **kwargs), config.seed, net_cfg,
                config.vc_policy)
            return net, how, key, _observe(net, probe, check, stride), None
        except REFUSALS as refusal:
            if config.backend != "auto":
                raise
            refused = str(refusal)
    from ..network.simulator import Network
    key = _idle_key(config, net_cfg)
    net, how = lease(key, lambda: Network(topo, net_cfg, **kwargs),
                     config.seed)
    return net, how, key, _observe(net, probe, check, stride), refused


def _observe(net, probe, check: bool, stride: int):
    """Attach what observes a point to its network, the one place that
    does: ``probe``, and for a ``check`` point the checks beside it
    (``repro.monitor.attach_checks``, whose registry is returned; else
    ``None``). An array core refuses a probe it cannot drive here."""
    if check:  # imported here: unchecked points never load the monitors
        from ..monitor.registry import attach_checks
        return attach_checks(net, probe, stride)
    if probe is not None:
        net.bind_probe(probe)
    return None


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


def check_stride_of(stride: int) -> int:
    """``stride``, the stepped cycles between two walks of a checked
    array-core run, refused by name below 1 on every core, checked or
    not: a caller's mistake is named before any point runs."""
    if stride < 1:
        raise ValueError(f"check stride must be >= 1 cycle, not {stride}")
    return stride


def run_experiment(config: ExperimentConfig, *, use_cache: bool = True,
                   probe=None, check: bool = False,
                   check_stride: int = 1) -> Result:
    """Simulate one configuration (memoized per process).

    ``probe`` attaches an instrumentation probe for this run; probed runs
    never read or populate the memo (the probe observes the simulation, so
    a cached result would silently skip it), and an ``auto`` point whose
    probe the array core refuses (``FlitTracer``) runs on the scalar core,
    ``manifest["refused"]`` saying why. ``check=True`` additionally
    attaches invariant checking (``repro.monitor.attach_checks``: the
    full scalar monitor suite on the scalar core, ``kernel.c``'s
    invariant walk every ``check_stride`` stepped cycles on the
    vectorized cores; both strict, so the first violation raises) and
    stores the metrics document on ``Result.monitor_report``. A
    ``check_stride`` below 1 raises ``ValueError`` (``check_stride_of``).
    Unchecked, unprobed runs are answered by ``resolve`` (memo, then the
    default store) and a simulated one goes through ``persist``, as
    every point of a sweep does. Every point, observed or not, runs on a
    network from the idle pool when one fits and parks it after a clean
    run.
    """
    check_stride_of(check_stride)
    use_cache = use_cache and probe is None and not check
    if use_cache:
        hit = resolve(config, store=_default_store)
        if hit is not None:
            return hit[0]
    start = time.perf_counter()
    net, how, park, registry, refused = _network_for(
        config, probe=probe, check=check, stride=check_stride)
    (result,) = _simulate([config], net, start, how, registry, park,
                          refused)
    if use_cache:
        persist(result, store=_default_store)
    return result


#: Config fields every lane of one batch must share (the chip shape the
#: replicated layout is built from). pattern/rate/packet_size/seed and
#: the cycle/warmup windows may vary per lane.
BATCH_KEY_FIELDS = CHIP_FIELDS + ("vc_policy", "scheme", "num_vcs",
                                  "buffer_depth")


def batch_key(config: ExperimentConfig):
    """Grouping key for batched execution, or ``None`` if unbatchable.

    Only synthetic-traffic ``auto`` points are grouped; trace replay is
    ticked from Python one trace per network (the MSHR gate itself is
    per terminal, ``kernel.c``'s ``inject_start``), so it always runs
    solo.
    """
    if config.benchmark is not None or config.backend != "auto":
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
    core, a single lane included. A chip the array core refuses raises
    the refusal (``network.backend.REFUSALS``); the scheduler then
    reruns the lanes solo, where ``auto`` falls back. No cache layer is
    read or written: the scheduler resolves those first and writes
    lanes through after. The chip comes from and goes back to the idle
    pool as ``run_experiment``'s does, checked or not.

    ``check=True`` attaches one ``VectorInvariantChecker`` to the shared
    chip (the walk every ``check_stride`` stepped cycles covers every
    lane at once; violations carry the offending lane index) and gives
    each result a per-lane metrics document on ``monitor_report``.
    """
    check_stride_of(check_stride)
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
    net_cfg, seeds = _net_config(first), [cfg.seed for cfg in configs]
    park = _idle_key(first, net_cfg, BatchNetwork, len(configs))
    net, how = _lease(park, lambda: BatchNetwork(
        topo, net_cfg, routing=routing, vc_policy=first.vc_policy,
        seeds=seeds), seeds, net_cfg, first.vc_policy)
    registry = _observe(net, None, check, check_stride)
    return _simulate(configs, net, start, how, registry, park)


def load_unit(configs, check: bool = False) -> None:
    """Load what simulating ``configs`` as one unit takes, so that a
    process forked afterwards loads and compiles none of it: the chip
    plan, each trace-replay point's trace, the core the unit is built
    on (the array core's kernel included, and the scalar core wherever
    an ``auto`` point will fall back to it) and, for a ``check`` unit,
    the checkers. A unit that fails here is left to fail where it runs,
    which names the point.
    """
    first = configs[0]
    info = TOPOLOGY_REGISTRY.get(first.topology)
    array = first.backend != "scalar" and (
        info is None or "vectorized" in info.backends)
    try:
        chip_plan(first)
        for cfg in configs:
            if cfg.benchmark is not None:
                get_trace(cfg.benchmark, cycles=cfg.trace_cycles,
                          warmup=cfg.trace_warmup, seed=cfg.seed)
        if check:
            from ..monitor import registry  # noqa: F401
        if array:
            from ..network.vectorized import batch, core  # noqa: F401
            if check:
                from ..network.vectorized import obs  # noqa: F401
            try:
                if core.load_kernel().lib is not None:
                    return
            except REFUSALS:  # no numpy: the scalar core answers
                pass
        from ..network import simulator  # noqa: F401
    except Exception:
        return


def _simulate(configs, net, start: float, how: str, registry, park,
              refused: str | None = None) -> list[Result]:
    """Everything after the network is leased or built and observed, for
    a solo point and the lanes of a batch alike: traffic, drain, the
    end-of-run invariant sweep, then one manifest and one ``Result`` per
    config, and ``net`` back to the pool under ``park``. ``net`` (a
    ``BatchNetwork`` with a lane per config, else the one config's own
    network) and ``how`` (leased or built) are the lease's answers at
    ``start``, ``registry`` the checks ``_observe`` attached (``None``:
    unchecked). ``refused`` is the refusal an ``auto`` point fell back
    to the scalar core on; the manifest records it.
    """
    first = configs[0]
    batched = backend_of(net) == "batched"
    if first.benchmark is not None:
        from ..traffic.trace import TraceReplayTraffic
        replay = TraceReplayTraffic(get_trace(
            first.benchmark, cycles=first.trace_cycles,
            warmup=first.trace_warmup, seed=first.seed))
        net.run(replay.horizon, replay)
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
    if refused is not None:
        core["refused"] = refused
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
                                extra={**core, **where, "network": how})
        results.append(Result.from_stats(cfg, stats, manifest=manifest,
                                         monitor_report=monitor_report))
    # Drained clean: fit for the next point, which resets it. The pool
    # keeps no observer of this one alive.
    if registry is not None or net.probe is not None:
        net.detach()
    _idle_networks[park] = net
    _idle_networks.move_to_end(park)
    if len(_idle_networks) > _IDLE_NETWORKS_MAX:
        _idle_networks.popitem(last=False)  # the least recently back
    return results


def memo_hit(config: ExperimentConfig) -> Result | None:
    """The in-process memo entry for ``config``; the store is untouched.

    For readers that want a memoized result and no store traffic (the
    benchmark reads a figure's points back this way); ``resolve`` is
    what answers a point.
    """
    return _run_cache.get(config)


def backend_decision(config: ExperimentConfig, lanes: int = 1) -> dict:
    """What the point asked for, for a unit of ``lanes``: the ``policy``
    it ran under and, for ``auto``, the core tried first (``chosen``:
    ``batched`` for a unit of two or more, else ``vectorized``). The
    core that *ran* is ``manifest["backend"]``, and
    ``manifest["refused"]`` says why it is not ``chosen``.
    """
    if config.backend != "auto":
        return {"policy": config.backend}
    return {"policy": "auto",
            "chosen": "batched" if lanes > 1 else "vectorized"}


def resolve(config: ExperimentConfig, key: str | None = None, store=None,
            journaled: dict | None = None):
    """Answer ``config`` without simulating it: ``(result, text, tier)``,
    or ``None`` when it has to be simulated.

    The tiers, in order: ``journal-replay`` — ``journaled``, the records
    of a journal a resumed sweep loaded (``SweepJournal.records()``,
    keyed by store key) — then ``memo``, then ``store``. ``text`` is the
    verified canonical payload a journal line or store entry was read
    from (``None`` for a memo hit), for a caller that records the point
    again without encoding it. ``key`` is the config's ``store_key``,
    hashed here only if the store is asked and the caller has none.

    A journal or store answer is built around ``config`` itself, not a
    config rebuilt from the payload, and only from a payload whose
    manifest names ``config``'s hash (``payload_to_result``). Anything
    else is no answer: a journal line for another config, or one this
    code cannot read, is skipped like a torn one; such a store entry is
    quarantined and read as a miss, as a corrupt one is. A store hit is
    folded into the memo.
    """
    if journaled:
        record = journaled.get(key)
        if record is not None:
            try:
                return (payload_to_result(record[0], config), record[1],
                        "journal-replay")
            except ValueError:
                pass
    hit = _run_cache.get(config)
    if hit is not None:
        return hit, None, "memo"
    if store is None:
        return None
    entry = store.get_with_text(
        key if key is not None else store_key(config),
        lambda payload: payload_to_result(payload, config))
    if entry is None:
        return None
    persist(entry[0])  # already durable: the memo only
    return entry[0], entry[1], "store"


def persist(result: Result, key: str | None = None, store=None,
            text: str | None = None) -> str | None:
    """The one writer of the memo and of store entries: fold ``result``
    into the memo, then put it in ``store`` under ``key`` (its config's
    ``store_key``). ``text`` is its canonical payload if the caller
    already holds it (a journal replay); otherwise it is encoded here,
    only for a store. Returns the text put, so a caller that journals
    the point appends the same string.
    """
    _run_cache[result.config] = result
    if store is None:
        return text
    if text is None:
        text = result_to_text(result)
    store.put_text(key if key is not None else store_key(result.config),
                   text, label=result.config.label)
    return text


def clear_cache() -> None:
    """Empty the in-process run memo (the default store, the chip plan
    and the idle networks hold no results and are untouched)."""
    _run_cache.clear()
