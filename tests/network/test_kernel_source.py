"""The synthetic source is stated twice, and the two must draw one stream.

``traffic/synthetic.py`` (``SyntheticTraffic``: the scalar core's source
and the oracle) and ``kernel.c``'s ``source_tick`` (what an array core
runs once ``_drive`` has bound the source into its ``Chip``) are tied
here:

* **Schedule identity.** Every pattern name, terminal count, rate and
  packet size: the ``(cycle, src, dst, size)`` rows the bound source
  enqueues are the rows ``tick`` hands a recording sink, on the release
  and on the bounds-checked build.
* **One stream however driven.** A source driven bound, then by
  ``tick``, then bound again is in the state of one that was only ever
  ticked: generator words, ``_drawn_until``, ``generated``.
* **Who drew.** With ``tick`` patched to raise, XY runs finish
  scalar-equal; under O1TURN (a draw per injection, which needs the
  ``Packet``) ``tick`` is what runs. Manifests and spans say which.
* **Refusals by name**: source-queue overflow, a withheld pool growth.
* **The clock** skips exactly the cycles the parent commit skipped.
"""

import dataclasses

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness import run_experiments
from repro.harness.experiment import (ExperimentConfig,
                                      run_batch_experiments, run_experiment)
from repro.network.config import BASELINE, PSEUDO_SB, NetworkConfig
from repro.network.router import ProtocolError
from repro.network.simulator import Network
from repro.network.vectorized import (BatchNetwork, VectorHooks,
                                      VectorNetwork, core, kernel)
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic

from .test_batched_parity import lane_sink

#: Every name ``destination_function`` accepts.
PATTERNS = ("uniform", "ur", "uniform_random", "bitcomp", "bc",
            "bit_complement", "transpose", "bp", "bit_permutation",
            "tornado", "shuffle", "neighbor", "hotspot")
#: Terminal count -> the mesh that has it. 4 is the fewest a chip that
#: binds a source can have (grids are at least 2x2; a two-router
#: irregular chip routes ``weighted``, which hooks injection); 12 is no
#: power of two, so ``randrange(11)`` rejects some of its 4-bit draws.
MESHES = {4: (2, 2), 12: (4, 3), 16: (4, 4), 64: (8, 8), 256: (16, 16)}
RATES = (0.0, 0.002, 0.3, 1.0)
SIZES = (1, 5)
SEEDS = (1, 7, 42)
CYCLES = 12


@pytest.fixture(autouse=True)
def compiled(_private_kernel_cache):
    loaded = kernel.load()
    if not loaded.status.startswith("c:"):
        pytest.skip(f"no compiled cycle on this machine: {loaded.refusal()}")


class Ticked:
    """A source ``_drive`` cannot bind: the same stream, ``tick`` only."""

    def __init__(self, source):
        self.tick = source.tick
        self.next_injection_cycle = source.next_injection_cycle


class Recorder:
    """The sink ``tick`` injects into, keeping the rows."""

    def __init__(self):
        self.rows = []

    def inject(self, packet):
        self.rows.append((packet.create_cycle, packet.src, packet.dst,
                          packet.size))


class Enqueued(VectorHooks):
    """Reads the rows a cycle enqueued off the packet pool: the slots
    created this cycle, in terminal order (one packet a terminal)."""

    def __init__(self):
        self.rows = []

    def bind(self, network):
        pass

    def on_cycle_start(self, cycle, network):
        pass

    def vec_cycle_end(self, cycle, net):
        born = (net.p_create[:net._npackets] == cycle).nonzero()[0]
        born = born[net.p_src[born].argsort()]
        self.rows += zip([cycle] * len(born), net.p_src[born].tolist(),
                         net.p_dst[born].tolist(), net.p_size[born].tolist())


def _source_at(cycle, *args, **kw):
    """A source whose stream starts at ``cycle``."""
    source = SyntheticTraffic(*args, **kw)
    source._drawn_until = cycle - 1
    return source


# -- (a) schedule identity ----------------------------------------------------

@pytest.mark.parametrize("flags", [kernel.RELEASE_FLAGS, kernel.CHECK_FLAGS],
                         ids=["release", "checked"])
@pytest.mark.parametrize("terminals", MESHES)
def test_the_bound_source_enqueues_what_tick_injects(flags, terminals,
                                                     monkeypatch):
    built = kernel.load(flags)
    assert built.status.startswith("c:"), built.refusal()
    monkeypatch.setattr(core, "load_kernel", lambda: built)
    net = VectorNetwork(make_topology("mesh", *MESHES[terminals], 1),
                        NetworkConfig(pseudo=BASELINE))
    seen = Enqueued()
    net.attach_checker(seen)
    accepted = 0
    for pattern in PATTERNS:
        try:
            SyntheticTraffic(pattern, terminals, 0.1)
        except ValueError:      # a bit pattern on 12 terminals
            continue
        accepted += 1
        for rate in RATES:
            for size in SIZES:
                for seed in SEEDS:
                    start = net.cycle
                    args = (pattern, terminals, rate, size)
                    bound = _source_at(start, *args, seed=seed)
                    ticked = _source_at(start, *args, seed=seed)
                    want = Recorder()
                    for cycle in range(start, start + CYCLES):
                        ticked.tick(want, cycle)
                    del seen.rows[:]
                    net.run(CYCLES, bound)
                    assert net.traffic_source == "kernel"
                    assert seen.rows == want.rows, (pattern, rate, size,
                                                    seed)
                    assert bound.generated == ticked.generated == len(
                        want.rows)
                    assert rate < 0.3 or want.rows
    assert accepted >= (5 if terminals == 12 else 10)
    if flags is kernel.CHECK_FLAGS:
        assert {"source_tick", "source_draw", "source_below",
                "source_ahead"} <= set(built.reached())


# -- (b) one stream however it is driven --------------------------------------

def _state(source):
    return (source.rng.getstate(), source._drawn_until, source.generated,
            dict(source._drawn))


_lane = st.tuples(
    st.sampled_from(["uniform", "hotspot", "transpose", "neighbor"]),
    st.sampled_from([0.0, 0.01, 0.2, 1.0]),
    st.integers(0, 999),            # seed
    st.integers(0, 40),             # first bound window
    st.integers(0, 40))             # second bound window


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lanes=st.lists(_lane, min_size=4, max_size=4),
       by_hand=st.integers(0, 8))
def test_bound_then_ticked_then_bound_is_one_stream(lanes, by_hand):
    topo = make_topology("mesh", 4, 4, 1)
    sides = []
    for wrap in (lambda source: source, Ticked):
        net = BatchNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                           seeds=[seed for _, _, seed, _, _ in lanes])
        sources = [SyntheticTraffic(pattern, 16, rate, 5, seed=seed)
                   for pattern, rate, seed, _, _ in lanes]
        offered = [wrap(source) for source in sources]
        trail = []
        net.run_batch(offered, [first for *_, first, _ in lanes])
        trail.append([_state(source) for source in sources])
        for _ in range(by_hand):
            for lane, source in enumerate(sources):
                source.tick(lane_sink(net, lane), net.cycle)
            net.step()
        net.run_batch(offered, [second for *_, second in lanes])
        trail.append([_state(source) for source in sources])
        net.drain()
        sides.append((trail, net.cycle, [
            net.lane_stats(lane).fingerprint() for lane in range(4)],
            net.traffic_source))
    (*bound, drew_bound), (*ticked, drew_ticked) = sides
    assert bound == ticked
    assert (drew_bound, drew_ticked) == ("kernel", "python")


def test_a_run_between_two_others_continues_the_stream():
    """The drive loops in their public form: solo ``run`` bound, a gap,
    ``run`` again, against the scalar core ticking the same source."""
    topo = make_topology("mesh", 4, 4, 1)
    nets = []
    for cls in (Network, VectorNetwork):
        net = cls(topo, NetworkConfig(pseudo=PSEUDO_SB), seed=7)
        source = SyntheticTraffic("uniform", 16, 0.1, 5, seed=3)
        net.run(150, source)
        net.run(40)
        net.run(150, source)
        net.drain()
        nets.append((net.stats.fingerprint(), net.cycle, source.generated))
    assert nets[0] == nets[1]


# -- (c) who drew -------------------------------------------------------------

_POINT = dict(topology="mesh", kx=4, ky=4, concentration=1,
              scheme=PSEUDO_SB, pattern="uniform", synth_cycles=150,
              synth_warmup=30)


def _points(routing, backend, lanes=16):
    return [ExperimentConfig(backend=backend, routing=routing, seed=seed,
                             rate=round(0.02 + 0.01 * seed, 3), **_POINT)
            for seed in range(lanes)]


def _measured(result):
    return dataclasses.replace(result, config=None)


@pytest.mark.parametrize("routing,drew", [("xy", "kernel"),
                                          ("o1turn", "python")])
def test_tick_runs_only_where_the_packet_is_needed(routing, drew,
                                                   monkeypatch):
    scalar = [run_experiment(cfg, use_cache=False)
              for cfg in _points(routing, "scalar")]
    assert all("traffic_source" not in r.manifest for r in scalar)
    calls = []
    tick = SyntheticTraffic.tick

    def counted(self, network, cycle):
        if drew == "kernel":
            raise AssertionError("tick ran on a source the kernel draws")
        calls.append(cycle)
        tick(self, network, cycle)

    monkeypatch.setattr(SyntheticTraffic, "tick", counted)
    lanes = run_batch_experiments(_points(routing, "batched"))
    solo = run_experiment(_points(routing, "vectorized")[3], use_cache=False)
    assert bool(calls) == (drew == "python")
    assert [_measured(r) for r in lanes] == [_measured(r) for r in scalar]
    assert _measured(solo) == _measured(scalar[3])
    assert {r.manifest["traffic_source"] for r in (*lanes, solo)} == {drew}


def test_point_spans_say_who_drew(tmp_path):
    from repro.telemetry.stream import read_stream
    stream = tmp_path / "sweep.telemetry.jsonl"
    run_experiments(
        [*_points("xy", "batched", lanes=2),
         _points("o1turn", "vectorized")[0], _points("xy", "scalar")[0]],
        max_workers=1, batch_size=2, telemetry=str(stream))
    spans = [rec for rec in read_stream(str(stream)) if rec["ev"] == "point"]
    assert [span.get("traffic_source") for span in spans] == [
        "kernel", "kernel", "python", None]


def test_trace_replay_is_drawn_in_python():
    result = run_experiment(ExperimentConfig(
        topology="cmesh", kx=4, ky=4, concentration=4, scheme=PSEUDO_SB,
        benchmark="radix", trace_cycles=300, trace_warmup=100,
        backend="vectorized"), use_cache=False)
    assert result.manifest["traffic_source"] == "python"


def test_a_python_source_is_asked_only_on_an_idle_chip():
    """Solo ``run`` used to ask ``next_injection_cycle`` after every
    cycle; a saturated chip can skip nothing, so nobody is asked."""
    topo = make_topology("mesh", 4, 4, 1)
    net = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB), seed=7)
    source = SyntheticTraffic("uniform", 16, 0.4, 5, seed=3)
    asked = []

    class Asked(Ticked):
        def __init__(self, source):
            super().__init__(source)
            self.next_injection_cycle = self.ask

        def ask(self, cycle):
            asked.append(net._busy())
            return source.next_injection_cycle(cycle)

    net.run(300, Asked(source))
    assert net.traffic_source == "python" and net.cycle == 300
    assert len(asked) < 30 and set(asked) <= {False}


# -- (d) refusals by name -----------------------------------------------------

def test_source_queue_overflow_is_the_scalar_error():
    topo = make_topology("mesh", 4, 4, 1)
    raised = []
    for cls in (Network, VectorNetwork):
        net = cls(topo, NetworkConfig(pseudo=BASELINE, inject_queue=2),
                  seed=7)
        source = SyntheticTraffic("transpose", 16, 1.0, 1, seed=3)
        with pytest.raises(RuntimeError, match="source queue overflow") as err:
            net.run(200, source)
        raised.append((str(err.value), net.cycle, source.generated))
    assert raised[0] == raised[1]
    assert raised[0][0].startswith("NIC ") and raised[0][0].endswith("(2)")


def test_a_source_that_finds_the_packet_pool_full_is_refused_by_name():
    """``step`` grows the packet pool by a slot per bound terminal; were
    that bound ever wrong the kernel must not write past the pool. Here
    the pool claims to be two slots from full and may not grow."""
    topo = make_topology("mesh", 4, 4, 1)
    net = VectorNetwork(topo, NetworkConfig(pseudo=BASELINE), seed=7)
    net._state[net._S_PACKETS] = net._pcap - 2
    net._size_pool = lambda fields, old, need: old
    source = SyntheticTraffic("neighbor", 16, 1.0, 1, seed=3)
    with pytest.raises(ProtocolError, match="pool exhausted"):
        net.run(5, source)
    assert net._npackets == net._pcap and net._num_queued == 2
    # The source takes back what the kernel did with it.
    assert source._drawn_until == 0 and source.generated == 0


# -- (e) the clock ------------------------------------------------------------

def test_low_load_skips_the_cycles_the_parent_commit_skipped():
    """``ff_cycles`` / ``stepped_cycles`` as PR 22 counted them (solo
    ``run`` and a four-lane batch of unequal windows, rate 0.002)."""
    topo = make_topology("mesh", 8, 8, 1)
    net = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB), seed=7)
    net.enable_profile()
    net.run(3000, SyntheticTraffic("uniform", 64, 0.002, 5, seed=3))
    net.drain()
    doc = net.profile()
    assert (doc["ff_cycles"], doc["stepped_cycles"], net.cycle) == (
        1409, 1596, 3005)
    net = BatchNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB), seeds=range(4))
    net.enable_profile()
    net.run_batch(
        [SyntheticTraffic(pattern, 64, 0.002, 5, seed=3 + lane)
         for lane, pattern in enumerate(
             ("uniform", "hotspot", "transpose", "bitcomp"))],
        [3000, 2500, 2000, 1500])
    net.drain()
    doc = net.profile()
    assert (doc["ff_cycles"], doc["stepped_cycles"], net.cycle) == (
        613, 2392, 3005)
