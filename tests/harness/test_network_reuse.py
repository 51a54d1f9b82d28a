"""Reset-and-reuse of networks: a leased network is a new network.

``run_experiment`` and ``run_batch_experiments`` keep up to two idle
networks per process and run the next point of the same shape on one of
them after ``reset`` instead of constructing it again: ~1 300 objects of
a scalar ``Network``, every array of an array core's ``Chip``. That is
pure reuse: nothing a simulation reports may depend on what ran on its
network before, a network whose run did not end clean is never used
again, and monitored runs (``probe=``, ``check=True``) and
``build_network`` stay outside the pool altogether. An array core's key
leaves out the scheme and VC policy, which ``reset`` sets, so one chip
serves every scheme of a shape; every manifest says whether its network
was ``leased`` or ``built``.
"""

import random
from collections import deque
from dataclasses import is_dataclass, replace
from enum import Enum
from types import FunctionType

import pytest

from repro.core.violation import InvariantViolation
from repro.harness import experiment
from repro.harness.experiment import (ExperimentConfig, Result,
                                      build_network, clear_cache,
                                      run_batch_experiments, run_experiment)
from repro.harness.parallel import run_experiments
from repro.harness.traces import get_trace
from repro.instrument import FlitTracer
from repro.metrics.stats import NetworkStats
from repro.network.vc import BufferOverflowError
from repro.network.config import (ALL_SCHEMES, BASELINE, PC_SCHEMES,
                                  PSEUDO_SB)
from repro.network.router import ProtocolError
from repro.network.simulator import Network
from repro.routing import CompiledRouting, RoutingAlgorithm
from repro.topology import TOPOLOGY_REGISTRY
from repro.topology.base import Topology
from repro.traffic.synthetic import SyntheticTraffic
from repro.vcalloc import VCAllocationPolicy

from ..network import exhaustive

idle = experiment._idle_networks


@pytest.fixture(autouse=True)
def cold_pool():
    """Every test starts, and leaves the process, with no idle network."""
    idle.clear()
    yield
    idle.clear()


@pytest.fixture
def resets(monkeypatch):
    """The networks ``Network.reset`` was called on, in order."""
    seen = []
    real = Network.reset

    def spy(self, seed=1):
        seen.append(self)
        real(self, seed)

    monkeypatch.setattr(Network, "reset", spy)
    return seen


def _point(topology="mesh", routing="xy", vc_policy="static",
           scheme=PSEUDO_SB, rate=0.05, seed=5, pattern="uniform",
           cycles=60, **overrides):
    fields = dict(
        topology=topology, kx=3, ky=3, concentration=1, routing=routing,
        vc_policy=vc_policy, scheme=scheme, pattern=pattern, rate=rate,
        synth_cycles=cycles, synth_warmup=cycles // 5, seed=seed,
        backend="scalar")
    if topology == "cmesh":
        fields["concentration"] = 2
    if topology == "chiplet":
        fields.update(kx=2, ky=2, chiplets=2)
    return ExperimentConfig(**{**fields, **overrides})


def _metrics(result):
    """A Result's compared fields as text: bit-exact, and unlike ``==``
    equal to itself where a point measured no packet (NaN latencies)."""
    return repr(replace(result, manifest=None, monitor_report=None))


def _fresh(cfg):
    """``cfg`` on a network built for it alone: (metrics, fingerprint).

    ``run_experiment``'s body on ``build_network``, which never hands
    out an idle network — the reference every reused run must equal.
    """
    net = build_network(cfg)
    if cfg.benchmark is not None:
        experiment._replay(net, get_trace(
            cfg.benchmark, cycles=cfg.trace_cycles, warmup=cfg.trace_warmup,
            seed=cfg.seed))
    else:
        net.stats.warmup_cycles = cfg.synth_warmup
        net.run(cfg.synth_cycles, SyntheticTraffic(
            cfg.pattern, net.topology.num_terminals, cfg.rate,
            cfg.packet_size, seed=cfg.seed))
        net.drain(max_cycles=500_000)
    net.check_invariants()
    return _metrics(Result.from_network(cfg, net)), net.stats.fingerprint()


def _parked(cfg, core=None, lanes=1):
    """The idle network ``cfg``'s run left behind (or ``None``): a scalar
    one, or one of the array ``core`` class with ``lanes`` lanes."""
    return idle.get(experiment._idle_key(cfg, experiment._net_config(cfg),
                                         core, lanes))


def _reused(cfg):
    """``cfg`` through ``run_experiment``: (metrics, fingerprint of the
    network it ran on, which is idle again by now)."""
    result = run_experiment(cfg, use_cache=False)
    return _metrics(result), _parked(cfg).stats.fingerprint()


#: What changes between consecutive uses of one network: a saturated
#: point, then a near-idle one, then other patterns, rates and seeds.
STEPS = (dict(rate=0.6, seed=11, pattern="uniform"),
         dict(rate=0.004, seed=12, pattern="uniform"),
         dict(rate=0.15, seed=13, pattern="hotspot", cycles=45),
         dict(rate=0.3, seed=11, pattern="neighbor", packet_size=2))

SHAPES = [(name, routing, policy)
          for name, info in TOPOLOGY_REGISTRY.items()
          if "scalar" in info.backends
          for routing in ("xy", "o1turn", "weighted")
          if routing in info.routings
          for policy in ("dynamic", "static")]


class TestReusedEqualsFresh:
    @pytest.mark.parametrize("topology,routing,policy", SHAPES)
    def test_interleaved_schemes(self, topology, routing, policy, resets):
        """Baseline and each pseudo-circuit scheme alternate on the two
        idle networks, every use with another rate, seed and pattern."""
        fresh = {}
        for scheme in PC_SCHEMES:
            idle.clear()
            del resets[:]
            order = [_point(topology, routing, policy, s, **step)
                     for step in STEPS for s in (BASELINE, scheme)]
            for cfg in order:
                if cfg not in fresh:
                    fresh[cfg] = _fresh(cfg)
                assert _reused(cfg) == fresh[cfg], cfg.label
            # One construction per scheme, every later point a reset.
            assert len(resets) == len(order) - 2
            assert len(idle) == 2
        assert {cfg.scheme for cfg in fresh} == set(ALL_SCHEMES)

    def test_evc_mesh_dynamic_routing(self, resets):
        """The one chip outside the registry: EVC's express mesh, whose
        VC window depends on the output port."""
        points = [_point("evc_mesh", "xy", "dynamic", BASELINE, kx=4, ky=4,
                         **step) for step in STEPS]
        for cfg in points + points[::-1]:
            assert _reused(cfg) == _fresh(cfg), cfg.label
        assert len(resets) == 2 * len(points) - 1

    def test_trace_replay_across_benchmarks(self, resets):
        """The fig8 point shape: MSHR-throttled replay of two benchmarks'
        traces, back to back on one network per scheme."""
        def trace_point(bench, scheme):
            return ExperimentConfig(
                topology="cmesh", kx=4, ky=4, concentration=4,
                routing="o1turn", vc_policy="dynamic", scheme=scheme,
                benchmark=bench, trace_cycles=150, trace_warmup=200,
                seed=3, backend="scalar")
        order = [trace_point(bench, scheme)
                 for bench in ("radix", "fma3d", "radix")
                 for scheme in (BASELINE, PSEUDO_SB)]
        assert build_network(order[0]).config.mshrs == 4
        for cfg in order:
            assert _reused(cfg) == _fresh(cfg), cfg.label
        assert len(resets) == len(order) - 2

    def test_random_sequences_on_one_shape(self):
        """Whatever ran before, and however often: property-tested."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        step = st.fixed_dictionaries(dict(
            scheme=st.sampled_from((BASELINE, PSEUDO_SB)),
            rate=st.sampled_from((0.0, 0.01, 0.1, 0.35, 0.8)),
            seed=st.integers(1, 6),
            pattern=st.sampled_from(("uniform", "hotspot", "tornado")),
            cycles=st.sampled_from((20, 50)),
            packet_size=st.sampled_from((1, 5))))
        fresh = {}

        @hypothesis.settings(max_examples=25, deadline=None)
        @hypothesis.given(st.lists(step, min_size=1, max_size=6))
        def check(steps):
            idle.clear()
            for fields in steps:
                cfg = _point(routing="o1turn", vc_policy="dynamic",
                             **fields)
                if cfg not in fresh:
                    fresh[cfg] = _fresh(cfg)
                assert _reused(cfg) == fresh[cfg], cfg.label

        check()

    def test_pooled_sweep_on_inherited_networks(self):
        """Forked workers start with the parent's idle networks."""
        points = [_point(scheme=s, **step)
                  for step in STEPS for s in (BASELINE, PSEUDO_SB)]
        for cfg in points[:2]:
            run_experiment(cfg, use_cache=False)  # parent: two idle nets
        clear_cache()
        assert len(idle) == 2  # clear_cache() is about results only
        swept = run_experiments(points, max_workers=2, chunk_size=2)
        assert [_metrics(r) for r in swept] == \
            [_fresh(cfg)[0] for cfg in points]


# -- reset() reaches every field ----------------------------------------------

#: Objects a network is wired to but does not own: shared, read-only, and
#: compared by type alone (both networks are built on one chip plan).
_SHARED = (Topology, RoutingAlgorithm, CompiledRouting, VCAllocationPolicy)


def _state(obj, seen, path="net"):
    """``obj`` and everything reachable from it as plain comparable data.

    Walks ``__slots__`` / ``__dict__`` and containers, so a field added
    to any component is compared without this test naming it; an object
    met again is recorded as the path it was first met on, which compares
    the wiring (who points at whom) as well as the values.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, Enum)):
        return obj
    if isinstance(obj, random.Random):
        return ("rng", obj.getstate())
    if isinstance(obj, NetworkStats):
        return ("stats", obj.fingerprint())
    if isinstance(obj, FunctionType):
        return ("function", obj.__qualname__)
    if isinstance(obj, _SHARED) or is_dataclass(obj):
        return (type(obj).__name__, obj if is_dataclass(obj) else None)
    if id(obj) in seen:
        return ("seen", seen[id(obj)])
    seen[id(obj)] = path
    if isinstance(obj, (list, tuple, deque)):
        return (type(obj).__name__,
                [_state(item, seen, f"{path}[{i}]")
                 for i, item in enumerate(obj)])
    if isinstance(obj, dict):
        return ("dict", [(key, _state(value, seen, f"{path}[{key!r}]"))
                         for key, value in obj.items()])
    names = [name for cls in type(obj).__mro__
             for name in getattr(cls, "__slots__", ())]
    names += list(getattr(obj, "__dict__", ()))
    assert names, f"{path}: cannot look inside {type(obj).__name__}"
    return (type(obj).__name__,
            {name: _state(getattr(obj, name), seen, f"{path}.{name}")
             for name in names})


def _dirty(cfg, cycles=40):
    """A network stopped mid-run: flits buffered, credits in flight,
    circuits held, NICs sending, active sets populated, probe bound."""
    net = build_network(cfg, probe=FlitTracer())
    net.nics[0].keep_ejected = True
    net.nics[1].on_packet = lambda packet, cycle: None
    net.stats.warmup_cycles = 7
    net.run(cycles, SyntheticTraffic(
        cfg.pattern, net.topology.num_terminals, cfg.rate, cfg.packet_size,
        seed=cfg.seed))
    assert not net.quiescent()
    return net


class TestResetReachesEveryField:
    @pytest.mark.parametrize("cfg", [
        _point(routing="o1turn", vc_policy="dynamic", rate=0.7),
        _point("mecs", rate=0.7),
        _point("chiplet", "weighted", scheme=BASELINE, rate=0.5),
        _point("evc_mesh", vc_policy="dynamic", scheme=BASELINE, kx=4, ky=4,
               rate=0.6),
    ], ids=lambda cfg: cfg.label)
    def test_reset_network_equals_new_network(self, cfg):
        new = _state(build_network(replace(cfg, seed=77)), {})
        net = _dirty(cfg)
        assert _state(net, {}) != new
        net.reset(77)
        assert _state(net, {}) == new

    def test_reset_gives_a_new_stats_object_to_every_holder(self):
        net = _dirty(_point(rate=0.7))
        old = net.stats
        before = old.fingerprint()
        net.reset(5)
        holders = [net, *net.routers, *net.nics]
        assert all(holder.stats is net.stats for holder in holders)
        assert net.stats is not old and old.fingerprint() == before

    def test_exhaustive_stepping_mode_resets_too(self):
        """The exhaustive oracle loop (``tests/network/exhaustive.py``)
        shares every line."""
        cfg = _point(rate=0.4)
        topo, routing = experiment.chip_plan(cfg)

        def run(net):
            exhaustive.run_and_drain(
                net, 50, SyntheticTraffic("uniform", topo.num_terminals,
                                          cfg.rate, 5, seed=9))
            return net.stats.fingerprint()

        def build(seed):
            return Network(topo, build_network(cfg).config, routing=routing,
                           vc_policy="static", seed=seed)

        net = build(1)
        run(net)
        net.reset(9)
        assert run(net) == run(build(9))


# -- the pool itself ----------------------------------------------------------

class TestIdlePool:
    def test_bounded_and_least_recently_used_goes_first(self):
        a, b, c = (_point(scheme=BASELINE), _point(scheme=PSEUDO_SB),
                   _point(scheme=BASELINE, num_vcs=2))
        for cfg in (a, b):
            run_experiment(cfg, use_cache=False)
        net_a, net_b = _parked(a), _parked(b)
        assert list(idle.values()) == [net_a, net_b]
        run_experiment(a, use_cache=False)      # a is now the most recent
        assert list(idle.values()) == [net_b, net_a]
        run_experiment(c, use_cache=False)      # a third shape: b goes
        assert list(idle.values()) == [net_a, _parked(c)]
        assert _parked(b) is None
        for cfg in (b, c, a, b, a, c) * 2:
            run_experiment(cfg, use_cache=False)
            assert len(idle) <= experiment._IDLE_NETWORKS_MAX == 2

    def test_key_is_the_wiring_not_the_traffic(self):
        base = _point()
        run_experiment(base, use_cache=False)
        net = _parked(base)
        same = (replace(base, rate=0.3, seed=9, pattern="hotspot"),
                replace(base, synth_cycles=30, synth_warmup=3),
                replace(base, packet_size=1))
        for cfg in same:
            run_experiment(cfg, use_cache=False)
            assert list(idle.values()) == [net]
        other = (replace(base, ky=4), replace(base, routing="o1turn"),
                 replace(base, vc_policy="dynamic"),
                 replace(base, scheme=BASELINE), replace(base, num_vcs=2),
                 replace(base, buffer_depth=2),
                 replace(base, topology="fbfly"))
        for cfg in other:
            idle.clear()
            idle[experiment._idle_key(base, net.config)] = net
            run_experiment(cfg, use_cache=False)
            assert _parked(cfg) is not net, cfg

    def test_a_leased_network_is_out_of_the_pool(self, monkeypatch):
        cfg = _point()
        run_experiment(cfg, use_cache=False)
        during = []
        real = Network.run

        def run(self, cycles, traffic=None):
            during.append(list(idle.values()))
            return real(self, cycles, traffic)

        monkeypatch.setattr(Network, "run", run)
        run_experiment(cfg, use_cache=False)
        assert during == [[]] and len(idle) == 1

    @pytest.mark.parametrize("backend", ["scalar", "vectorized", "batched"])
    def test_the_manifest_says_leased_or_built(self, backend, request):
        """The second point of a shape reads ``leased`` on each core (an
        array chip under another scheme too), the first ``built``."""
        if backend != "scalar":
            request.getfixturevalue("array_core")
        cfg = _point(backend="auto" if backend == "batched" else backend)
        nxt = replace(cfg, seed=9, rate=0.2,
                      scheme=cfg.scheme if backend == "scalar" else BASELINE)
        if backend == "batched":
            results = [run_batch_experiments([c, replace(c, seed=2)])[1]
                       for c in (cfg, nxt)]
        else:
            results = [run_experiment(c, use_cache=False) for c in (cfg, nxt)]
        assert [r.manifest["network"] for r in results] == ["built", "leased"]
        assert [r.manifest["backend"] for r in results] == [backend] * 2

    def test_each_core_parks_under_a_key_of_its_own(self):
        """An array core is kept as a scalar one is, keyed by the chip
        plan, the layout fields, its class and its lane count: a
        vectorized and a batched point of one shape share one chip
        whatever their scheme and VC policy, a two-lane batch has a chip
        of its own, and ``auto`` parks the core it ran on."""
        pytest.importorskip("numpy")
        from repro.network.vectorized import BatchNetwork, VectorNetwork
        point = _point(backend="vectorized")
        first = run_experiment(point, use_cache=False)
        solo = _parked(point, VectorNetwork)
        again = run_experiment(replace(point, backend="auto", seed=8,
                                       scheme=BASELINE, vc_policy="dynamic"),
                               use_cache=False)
        assert (first.manifest["network"], again.manifest["network"]) == (
            "built", "leased")
        assert type(solo) is VectorNetwork and list(idle.values()) == [solo]
        run_batch_experiments([replace(point, backend="auto", seed=seed)
                               for seed in (1, 2)])
        batch = _parked(point, BatchNetwork, lanes=2)
        assert type(batch) is BatchNetwork
        assert list(idle.values()) == [solo, batch]
        # auto: the vectorized core wherever it accepts the point, at
        # any load...
        for rate in (0.4, 0.001):
            busy = _point(kx=8, ky=8, rate=rate, backend="auto", cycles=20)
            assert run_experiment(busy, use_cache=False).manifest[
                "backend"] == "vectorized"
        assert list(idle.values()) == [batch, _parked(busy, VectorNetwork)]
        # ...and the scalar core where it refuses.
        refused = _point("mecs", kx=8, ky=8, rate=0.4, backend="auto",
                         cycles=20)
        for _ in range(2):
            result = run_experiment(refused, use_cache=False)
            assert result.manifest["backend"] == "scalar"
            assert "point-to-point" in result.manifest["refused"]
            scalar = replace(refused, backend="scalar")
            assert _metrics(replace(result, config=scalar)) == \
                _fresh(scalar)[0]
            assert type(_parked(refused)) is Network
        assert len(idle) == 2


# -- a run that did not end clean ---------------------------------------------

class _Raising(SyntheticTraffic):
    """Synthetic traffic that fails half-way through the run."""

    error: BaseException = RuntimeError("boom")

    def tick(self, network, cycle):
        if cycle == 30:
            raise self.error
        super().tick(network, cycle)


class TestFailedRunIsNeverLeasedAgain:
    @pytest.mark.parametrize("error", [
        RuntimeError("network failed to drain within 1 cycles"),
        ProtocolError("body flit on inactive VC"),
        BufferOverflowError("buffer write to full 4-flit buffer"),
        InvariantViolation("credit_underflow", "credit consumed with zero "
                           "credits"),
        KeyboardInterrupt(),
    ], ids=lambda error: type(error).__name__)
    def test_raising_traffic_source(self, error, monkeypatch, resets):
        cfg = _point(rate=0.5)
        run_experiment(cfg, use_cache=False)
        doomed = _parked(cfg)
        monkeypatch.setattr(_Raising, "error", error)
        monkeypatch.setattr(experiment, "SyntheticTraffic", _Raising)
        with pytest.raises(type(error)):
            run_experiment(replace(cfg, seed=8), use_cache=False)
        monkeypatch.undo()
        assert resets == [doomed] and not doomed.quiescent()
        assert not idle
        # The next point of the shape is constructed, and reads fresh.
        nxt = replace(cfg, seed=9)
        assert _reused(nxt) == _fresh(nxt)
        assert _parked(nxt) is not doomed

    @pytest.mark.parametrize("method,error", [
        ("drain", RuntimeError("network failed to drain")),
        ("check_invariants", AssertionError("pc_holder out of sync")),
    ])
    def test_failed_drain_or_invariants(self, method, error, monkeypatch):
        cfg = _point()
        run_experiment(cfg, use_cache=False)
        doomed = _parked(cfg)

        def fail(self, *args, **kwargs):
            raise error

        monkeypatch.setattr(Network, method, fail)
        with pytest.raises(type(error)):
            run_experiment(cfg, use_cache=False)
        monkeypatch.undo()
        assert not idle
        assert _reused(cfg) == _fresh(cfg)
        assert _parked(cfg) is not doomed

    def test_failed_sweep_point_then_retry(self, monkeypatch):
        """Through the scheduler: the retry runs on a new network."""
        cfg = _point(rate=0.5)
        run_experiment(cfg, use_cache=False)
        doomed = _parked(cfg)
        clear_cache()
        calls = []

        class Once(_Raising):
            def tick(self, network, cycle):
                calls.append(cycle)
                if len(calls) > 31:      # only the first attempt fails
                    SyntheticTraffic.tick(self, network, cycle)
                else:
                    super().tick(network, cycle)

        monkeypatch.setattr(experiment, "SyntheticTraffic", Once)
        [result] = run_experiments([cfg], max_workers=1, retries=1,
                                   sleep=lambda s: None)
        monkeypatch.undo()
        assert _metrics(result) == _fresh(cfg)[0]
        assert _parked(cfg) is not doomed


# -- runs that stay outside the pool ------------------------------------------

class TestMonitoredRunsAndBuildNetwork:
    def _watched(self, cfg):
        """Result and event stream of a traced run (packet ids come from
        a process-wide counter: renumbered by first appearance)."""
        tracer = FlitTracer()
        result = run_experiment(cfg, probe=tracer)
        pids = {}
        events = [dict(ev, pid=pids.setdefault(ev["pid"], len(pids)))
                  if "pid" in ev else ev for ev in tracer.events]
        return result, events

    def test_probe_runs_neither_take_nor_return(self, resets):
        cfg = _point(rate=0.2)
        cold = self._watched(cfg)
        assert not idle
        run_experiment(replace(cfg, seed=2, rate=0.6), use_cache=False)
        net = _parked(cfg)
        left = _state(net, {})
        assert self._watched(cfg) == cold
        assert list(idle.values()) == [net] and not resets
        assert _state(net, {}) == left

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_checked_runs_neither_take_nor_return(self, backend, resets):
        if backend != "scalar":
            pytest.importorskip("numpy")
        cfg = _point(rate=0.2, backend=backend)
        cold = run_experiment(cfg, check=True)
        assert not idle
        run_experiment(_point(seed=2, rate=0.6), use_cache=False)
        [net] = idle.values()
        warm = run_experiment(cfg, check=True)
        assert warm == cold
        assert warm.monitor_report["monitors"] == \
            cold.monitor_report["monitors"]
        assert list(idle.values()) == [net] and not resets
        assert cold == run_experiment(cfg, use_cache=False)

    def test_build_network_is_always_new(self, resets):
        cfg = _point()
        assert not idle
        first = build_network(cfg)
        assert not idle
        run_experiment(cfg, use_cache=False)
        net = _parked(cfg)
        built = [build_network(cfg), build_network(cfg, probe=FlitTracer())]
        assert all(other is not net and other is not first
                   for other in built)
        assert list(idle.values()) == [net] and not resets
        assert net.cycle > 0  # untouched since its run


# -- the array cores ----------------------------------------------------------

@pytest.fixture
def array_core():
    """The array cores' module, in a process that has their kernel."""
    pytest.importorskip("numpy")
    from repro.network import vectorized
    loaded = vectorized.kernel.load()
    if not loaded.status.startswith("c:"):
        pytest.skip(f"no compiled cycle on this machine: {loaded.refusal()}")
    return vectorized


#: Array-core shapes: each VC policy, the compiled and the Python-drawn
#: source (O1TURN needs the ``Packet``), links of several latencies.
ARRAY_SHAPES = [("mesh", "xy", "static"), ("mesh", "o1turn", "dynamic"),
                ("cmesh", "xy", "dynamic"), ("chiplet", "weighted", "static")]


def _batch_fresh(cfgs):
    """The lanes of one batch on a ``BatchNetwork`` built for them alone:
    ``run_batch_experiments``' body without the pool."""
    from repro.network.vectorized import BatchNetwork
    topo, routing = experiment.chip_plan(cfgs[0])
    net = BatchNetwork(topo, experiment._net_config(cfgs[0]),
                       routing=routing, vc_policy=cfgs[0].vc_policy,
                       seeds=[cfg.seed for cfg in cfgs])
    net.run_batch([SyntheticTraffic(cfg.pattern, topo.num_terminals,
                                    cfg.rate, cfg.packet_size, seed=cfg.seed)
                   for cfg in cfgs], [cfg.synth_cycles for cfg in cfgs],
                  [cfg.synth_warmup for cfg in cfgs])
    net.drain(max_cycles=500_000)
    net.check_invariants()
    return [_metrics(Result.from_stats(cfg, net.lane_stats(lane)))
            for lane, cfg in enumerate(cfgs)]


class TestArrayReusedEqualsFresh:
    @pytest.mark.parametrize("topology,routing,policy", ARRAY_SHAPES)
    def test_every_scheme_on_one_leased_chip(self, topology, routing,
                                             policy, array_core):
        """Baseline and each pseudo-circuit scheme alternate on the one
        idle chip of the shape, every use with another rate, seed and
        pattern, and each equals its ``build_network`` run."""
        order = [_point(topology, routing, policy, scheme,
                        backend="vectorized", **step)
                 for step in STEPS for scheme in ALL_SCHEMES]
        how = []
        for cfg in order:
            result = run_experiment(cfg, use_cache=False)
            how.append(result.manifest["network"])
            assert _metrics(result) == _fresh(cfg)[0], cfg.label
        assert how == ["built"] + ["leased"] * (len(order) - 1)
        [net] = idle.values()
        assert type(net) is array_core.VectorNetwork

    @pytest.mark.parametrize("topology,routing,policy", ARRAY_SHAPES[:2])
    def test_batches_of_every_scheme_on_one_leased_chip(
            self, topology, routing, policy, array_core):
        """Two-lane units, one scheme each, alternate on one BatchNetwork;
        every lane equals its batch on a new chip, and its solo run."""
        units = [[_point(topology, routing, policy, scheme,
                         backend="auto", **dict(step, seed=seed))
                  for seed in (21, 22)]
                 for step in STEPS[:2] for scheme in ALL_SCHEMES]
        for unit in units:
            lanes = run_batch_experiments(unit)
            assert [_metrics(r) for r in lanes] == _batch_fresh(unit)
            assert _metrics(lanes[1]) == _fresh(unit[1])[0]
            assert {r.manifest["network"] for r in lanes} == {
                "built" if unit is units[0] else "leased"}
        [net] = idle.values()
        assert type(net) is array_core.BatchNetwork

    def test_pooled_sweep_on_inherited_chips(self, array_core):
        """Forked workers start with the parent's idle array chips."""
        points = [_point(scheme=s, backend="vectorized", **step)
                  for step in STEPS for s in (BASELINE, PSEUDO_SB)]
        run_experiment(points[0], use_cache=False)  # parent: one idle chip
        run_experiment(_point(kx=4, backend="vectorized"), use_cache=False)
        clear_cache()
        assert len(idle) == 2
        swept = run_experiments(points, max_workers=2, chunk_size=2)
        assert [_metrics(r) for r in swept] == \
            [_fresh(cfg)[0] for cfg in points]
        assert {r.manifest["network"] for r in swept} == {"leased"}


class TestArrayFailedRunIsNeverLeasedAgain:
    @pytest.mark.parametrize("error", [
        ProtocolError("body flit on inactive VC"),
        BufferOverflowError("buffer write to full 4-flit buffer"),
        KeyboardInterrupt(),
    ], ids=lambda error: type(error).__name__)
    @pytest.mark.parametrize("backend", ["vectorized", "batched"])
    def test_raising_traffic_source(self, backend, error, monkeypatch,
                                    array_core):
        from repro.network.vectorized import BatchNetwork, VectorNetwork
        cfgs = [_point(rate=0.5, seed=seed,
                       backend="auto" if backend == "batched" else backend)
                for seed in (7, 8)]

        def run(cfgs):
            if backend == "batched":
                return run_batch_experiments(cfgs)
            return [run_experiment(cfgs[0], use_cache=False)]

        def parked():
            if backend == "batched":
                return _parked(cfgs[0], BatchNetwork, lanes=2)
            return _parked(cfgs[0], VectorNetwork)

        run(cfgs)
        doomed = parked()
        monkeypatch.setattr(_Raising, "error", error)
        monkeypatch.setattr(experiment, "SyntheticTraffic", _Raising)
        with pytest.raises(type(error)):
            run([replace(cfg, seed=cfg.seed + 2) for cfg in cfgs])
        monkeypatch.undo()
        assert not idle and not doomed.quiescent()
        # The next point of the shape is built, and reads fresh.
        nxt = [replace(cfg, seed=cfg.seed + 4) for cfg in cfgs]
        results = run(nxt)
        assert [r.manifest["network"] for r in results] == ["built"] * len(
            results)
        assert [_metrics(r) for r in results] == \
            [_fresh(cfg)[0] for cfg in nxt[:len(results)]]
        assert parked() is not doomed

    @pytest.mark.parametrize("method", ["drain", "check_invariants"])
    def test_failed_drain_or_invariants(self, method, monkeypatch,
                                        array_core):
        cfg = _point(backend="vectorized")
        run_experiment(cfg, use_cache=False)
        doomed = _parked(cfg, array_core.VectorNetwork)

        def fail(self, *args, **kwargs):
            raise RuntimeError("network failed to drain")

        monkeypatch.setattr(array_core.VectorNetwork, method, fail)
        with pytest.raises(RuntimeError):
            run_experiment(cfg, use_cache=False)
        monkeypatch.undo()
        assert not idle
        assert _metrics(run_experiment(cfg, use_cache=False)) == \
            _fresh(cfg)[0]
        assert _parked(cfg, array_core.VectorNetwork) is not doomed

    def test_monitored_runs_and_build_network_stay_out(self, array_core):
        """Probed and checked runs neither take nor return an array chip,
        and ``build_network`` never hands out the idle one."""
        from repro.instrument import TimeSeriesProbe
        cfg = _point(backend="vectorized", rate=0.3)
        run_experiment(cfg, use_cache=False)
        [net] = idle.values()
        probed = run_experiment(cfg, probe=TimeSeriesProbe())
        checked = run_experiment(cfg, check=True)
        assert probed.manifest["network"] == checked.manifest[
            "network"] == "built"
        assert build_network(cfg) is not net
        assert list(idle.values()) == [net] and net.cycle > 0
        assert _metrics(probed) == _metrics(checked) == _fresh(cfg)[0]


# -- reset() reaches every array of the Chip ----------------------------------

def _chip_arrays(net):
    """Every array of ``net``'s ``Chip``, flat, by ``CHIP_ARRAYS`` name."""
    return {name: array.ravel()
            for name, array in net._kernel._arrays.items()}


def _differences(net, new):
    """The ``CHIP_ARRAYS`` and ``Chip`` scalars in which ``net`` is not
    ``new``: an array equal up to ``new``'s size, every element beyond
    it (a pool, a histogram grown longer) at the value it starts at."""
    ours, theirs = _chip_arrays(net), _chip_arrays(new)
    assert ours.keys() == theirs.keys()
    differ = []
    for name, want in theirs.items():
        got, beyond = ours[name], ours[name][want.size:]
        if (got.size < want.size or (got[:want.size] != want).any()
                or beyond.size and (beyond != new._starts[name]).any()):
            differ.append(name)
    from repro.network.vectorized import kernel
    differ += [name for name in kernel.load().scalars
               if getattr(net._kernel.chip, name)
               != getattr(new._kernel.chip, name)]
    return differ


def _python_side(net):
    """What the network keeps outside its ``Chip``."""
    return (net.cycle, net._nic_seeds, net.nic_rngs, net.p_obj,
            net._deliveries, net.stats.fingerprint(), net.traffic_source,
            net.probe,
            net._vhooks, net.config, net.vc_policy.name, net._pc_enabled,
            net.profile(), getattr(net, "lane_seeds", None))


#: (lanes, routing, the policy the chip is dirtied under, the scheme and
#: policy it is reset to): solo and four lanes, both VC policies each
#: way, the compiled and the Python-drawn source.
_RESETS = [(1, "xy", "static", PSEUDO_SB, "dynamic"),
           (1, "o1turn", "dynamic", BASELINE, "static"),
           (4, "xy", "dynamic", BASELINE, "static"),
           (4, "o1turn", "static", PSEUDO_SB, "dynamic")]


class TestArrayResetReachesEveryField:
    def _build(self, array_core, lanes, routing, policy, scheme, seed):
        from repro.network.config import NetworkConfig
        topo, _ = experiment.chip_plan(_point())
        config = NetworkConfig(pseudo=scheme)
        if lanes == 1:
            return array_core.VectorNetwork(topo, config, routing=routing,
                                            vc_policy=policy, seed=seed)
        return array_core.BatchNetwork(
            topo, config, routing=routing, vc_policy=policy,
            seeds=[seed + lane for lane in range(lanes)])

    def _dirty(self, array_core, lanes, routing, policy, scheme):
        """A chip stopped mid-run: flits buffered, circuits held, NICs
        sending, latency rows set, probe bound, profiler on and a
        delivery callback attached."""
        from repro.instrument import TimeSeriesProbe
        net = self._build(array_core, lanes, routing, policy, scheme, 5)
        net.bind_probe(TimeSeriesProbe(window=8))
        net.enable_profile()
        net.attach_delivery(0, lambda packet, cycle: None)
        traffic = [SyntheticTraffic("uniform", 9, 0.7, 5, seed=3 + lane)
                   for lane in range(lanes)]
        if lanes == 1:
            net.stats.warmup_cycles = 7
            net.run(40, traffic[0])
        else:
            net.run_batch(traffic, [40] * lanes, [7] * lanes)
        assert not net.quiescent() and net._buffered
        assert net._snd_cnt.any() and net.hist.any()
        assert net.pc_valid.any() == (scheme is PSEUDO_SB)
        assert bool(net.p_obj) == (routing == "o1turn")
        return net

    @pytest.mark.parametrize("lanes,routing,dirty_policy,scheme,policy",
                             _RESETS)
    def test_reset_chip_equals_new_chip(self, lanes, routing, dirty_policy,
                                        scheme, policy, array_core):
        new = self._build(array_core, lanes, routing, policy, scheme, 77)
        other = PSEUDO_SB if scheme is BASELINE else BASELINE
        net = self._dirty(array_core, lanes, routing, dirty_policy, other)
        assert _differences(net, new)
        if lanes == 1:
            net.reset(77, new.config, policy)
        else:
            net.reset([77 + lane for lane in range(lanes)], new.config,
                      policy)
        assert _differences(net, new) == []
        assert _python_side(net) == _python_side(new)

    def test_an_array_without_a_start_is_named(self, array_core):
        """The seeded case: an array the reset has no initial value for
        is left as the run left it, and the comparison names it."""
        new = self._build(array_core, 1, "xy", "static", PSEUDO_SB, 77)
        net = self._dirty(array_core, 1, "xy", "static", PSEUDO_SB)
        del net._starts["vc_state"]
        net.reset(77)
        assert _differences(net, new) == ["vc_state"]

    def test_reset_keeps_the_layout(self, array_core):
        from repro.network.config import NetworkConfig
        net = self._build(array_core, 1, "xy", "static", BASELINE, 1)
        for layout in (dict(num_vcs=2), dict(buffer_depth=2),
                       dict(credit_delay=2), dict(inject_queue=4)):
            with pytest.raises(ValueError, match="layout"):
                net.reset(1, NetworkConfig(**layout))
        net.reset(1, NetworkConfig(pseudo=PSEUDO_SB, mshrs=4), "dynamic")
        assert net._kernel.chip.mshrs == 4 and net._pc_enabled
