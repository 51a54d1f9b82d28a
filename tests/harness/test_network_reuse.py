"""Reset-and-reuse of scalar networks: a leased network is a new network.

``run_experiment`` keeps up to two idle scalar ``Network``s per process
and runs the next point of the same shape on one of them after
``reset(seed)`` instead of constructing ~1 300 objects again. That is
pure reuse of wiring: nothing a simulation reports may depend on what
ran on its network before, a network whose run did not end clean is
never used again, and monitored runs (``probe=``, ``check=True``) and
``build_network`` stay outside the pool altogether.
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
                                      run_experiment)
from repro.harness.parallel import run_experiments
from repro.harness.traces import get_trace
from repro.instrument import FlitTracer
from repro.metrics.stats import NetworkStats
from repro.network.buffers import BufferOverflowError
from repro.network.config import (ALL_SCHEMES, BASELINE, PC_SCHEMES,
                                  PSEUDO_SB)
from repro.network.router import ProtocolError
from repro.network.simulator import Network
from repro.routing import CompiledRouting, RoutingAlgorithm
from repro.topology import TOPOLOGY_REGISTRY
from repro.topology.base import Topology
from repro.traffic.synthetic import SyntheticTraffic
from repro.vcalloc import VCAllocationPolicy

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


def _parked(cfg):
    """The idle network ``cfg``'s run left behind (or ``None``)."""
    return idle.get(experiment._idle_key(cfg, experiment._net_config(cfg)))


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
        """The one chip outside the registry (route() per hop, no table)."""
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
        """``active_set=False`` (the reference loop) shares every line."""
        cfg = _point(rate=0.4)
        topo, routing = experiment.chip_plan(cfg)

        def run(net):
            net.run(50, SyntheticTraffic("uniform", topo.num_terminals,
                                         cfg.rate, 5, seed=9))
            net.drain()
            return net.stats.fingerprint()

        def build(seed):
            return Network(topo, build_network(cfg).config, routing=routing,
                           vc_policy="static", seed=seed, active_set=False)

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

    def test_only_scalar_networks_are_kept(self):
        pytest.importorskip("numpy")
        for backend in ("vectorized", "batched"):
            run_experiment(_point(backend=backend), use_cache=False)
        assert not idle
        # auto: the vectorized core above its crossover, never parked...
        run_experiment(_point(kx=8, ky=8, rate=0.4, backend="auto",
                              cycles=20), use_cache=False)
        assert not idle
        # ...the scalar core below it, and where vectorized refuses.
        low = _point(rate=0.001, backend="auto")
        refused = _point("mecs", kx=8, ky=8, rate=0.4, backend="auto",
                         cycles=20)
        for cfg in (low, refused, low, refused):
            result = run_experiment(cfg, use_cache=False)
            assert result.manifest["backend"] == "scalar"
            scalar = replace(cfg, backend="scalar")
            assert _metrics(replace(result, config=scalar)) == \
                _fresh(scalar)[0]
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
