"""The compiled cycle (``vectorized/kernel.c``) and its loader.

An array core steps through one C call per cycle and has no second form
of itself to be compared with; its oracle is the scalar ``Network``.
Pinned here:

* **Lockstep differential.** The scalar core and the array core driven
  by the same traffic, compared after *every* cycle (``stats
  .fingerprint()`` and the clock), over the parity grid — both VC
  policies, ``o1turn``, chiplet / kite, trace replay behind MSHRs — and
  each lane of a 4-lane batch against its own scalar run. A divergence
  names the first cycle it appears in. (The class keeps the name it had
  when the reference was the numpy twin of each phase.)
* **Observers change nothing.** The same runs with the observer hooks
  attached — the kernel's event buffers on — and with them off.
* **Checked build.** The parity grid under ``-DREPRO_KERNEL_CHECK``:
  an out-of-bounds access is the one fault fingerprint parity cannot
  see; a seeded one is raised naming array and index.
* **Storage.** Calendar rings that wrap at a chiplet boundary, a ring
  one slot too shallow, pools that grow mid-flight with the ``Chip``
  following, a start that finds the flit pool full.
* **Loader.** Every way the build can go wrong ends in a refusal that
  names its reason (``BackendUnsupportedError``), and ``auto`` still
  answers, from the scalar core.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.harness import run_experiments
from repro.harness.experiment import (ExperimentConfig,
                                      run_batch_experiments, run_experiment)
from repro.harness.traces import get_trace
from repro.instrument.overhead import vectorized_overhead_gate
from repro.network.backend import BackendUnsupportedError
from repro.network.buffers import BufferOverflowError
from repro.network.config import PSEUDO_SB, NetworkConfig
from repro.network.flit import Packet
from repro.network.router import ProtocolError
from repro.network.simulator import Network
from repro.network.vectorized import (BatchNetwork, VectorHooks,
                                      VectorInvariantChecker, VectorNetwork,
                                      core, kernel)
from repro.network.vectorized.obs import summaries
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic
from repro.traffic.trace import TraceReplayTraffic

from . import test_batched_parity, test_irregular_parity
from .test_vectorized_parity import (CONCENTRATED, GRID, MESH4X4, MESH8X8,
                                      PATTERNS, ROUTINGS, SEEDS, WIDTHS, _run)

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def compiled(_private_kernel_cache):
    """Every test here starts from a process that has the kernel."""
    loaded = kernel.load()
    if not loaded.status.startswith("c:"):
        pytest.skip(f"no compiled cycle on this machine: {loaded.refusal()}")
    return loaded.status


@pytest.fixture
def no_compiler(monkeypatch):
    """Networks built from here on find no compiler."""
    monkeypatch.setenv("CC", "false")
    assert kernel.load().status == "refused:no-compiler"


@pytest.fixture
def checked_step(monkeypatch):
    """Networks built from here on run the bounds-checked build."""
    checked = kernel.load(kernel.CHECK_FLAGS)
    assert checked.status.startswith("c:")
    monkeypatch.setattr(core, "load_kernel", lambda: checked)


# -- lockstep differential ----------------------------------------------------

def _stepping(net, traffic, cycles):
    """``net.run(cycles, traffic)`` then ``net.drain()``, as a generator
    that yields after every ``step()`` (before the fast-forward that
    follows it)."""
    end = net.cycle + cycles
    while net.cycle < end:
        traffic.tick(net, net.cycle)
        net.step()
        yield
        net.fast_forward(end, traffic.next_injection_cycle(net.cycle))
    while not net.quiescent():
        net.step()
        yield
        if not net.quiescent():
            net.fast_forward(net.cycle + 500_000)


def _replaying(net, trace):
    """``experiment._replay``, yielding after every ``step()``."""
    replay = TraceReplayTraffic(trace)
    while not replay.exhausted:
        replay.tick(net, net.cycle)
        net.step()
        yield
        nxt = replay.next_injection_cycle(net.cycle)
        if nxt is not None:
            net.fast_forward(nxt, nxt)
    yield from _stepping(net, None, 0)


def _lockstep(build, drive):
    """Build the point on both cores, step them side by side and compare
    after every cycle; returns the two finished networks."""
    nets = [build(cls) for cls in (Network, VectorNetwork)]
    steps = 0
    for _ in zip(*(drive(net) for net in nets), strict=True):
        scalar, vector = nets
        assert scalar.cycle == vector.cycle, f"clocks part after {steps}"
        assert scalar.stats.fingerprint() == vector.stats.fingerprint(), (
            f"cycle {scalar.cycle - 1}")
        steps += 1
    assert steps and nets[0].quiescent() and nets[1].quiescent()
    for net in nets:
        net.check_invariants()
    return nets


def _grid_point(topo_args, scheme, rate, cycles, *, routing="xy",
                vc_policy="dynamic", seed=7, packet_size=5, num_vcs=4,
                benchmark=None, pattern="uniform"):
    """``(build, drive)`` of one row of the parity grid
    (``test_vectorized_parity._run``, taken apart)."""
    def build(cls):
        net = cls(make_topology(*topo_args),
                  NetworkConfig(num_vcs=num_vcs, pseudo=scheme,
                                mshrs=4 if benchmark else 0),
                  routing=routing, vc_policy=vc_policy, seed=seed)
        net.stats.warmup_cycles = cycles // 5
        return net

    def drive(net):
        if benchmark:
            return _replaying(net, get_trace(benchmark, cycles=cycles,
                                             warmup=200, seed=seed))
        return _stepping(net, SyntheticTraffic(
            pattern, net.topology.num_terminals, rate, packet_size,
            seed=seed), cycles)
    return build, drive


#: The parity grid by test id: each scheme under both VC policies,
#: low load and saturation, o1turn's VC windows, wide arbiters, 1 / 8 /
#: 12 VCs, MSHR-gated trace replay.
_GRID = {**MESH8X8, **MESH4X4, **ROUTINGS, **CONCENTRATED,
         **{f"seed-{seed}": case for seed, case in SEEDS.items()},
         **PATTERNS, **WIDTHS}
assert list(_GRID.values()) == GRID


def _irregular_point(topo_args, topo_kw, config, rate, cycles):
    def build(cls):
        net = cls(make_topology(*topo_args, **topo_kw), config,
                  routing="weighted", vc_policy="static", seed=7)
        net.stats.warmup_cycles = cycles // 5
        return net

    def drive(net):
        return _stepping(net, SyntheticTraffic(
            "uniform", net.topology.num_terminals, rate, 5, seed=7), cycles)
    return build, drive


class TestPerPhaseDifferential:
    @pytest.mark.parametrize("case", _GRID.values(), ids=_GRID)
    def test_parity_grid(self, case):
        topo_args, scheme, rate, cycles, kw = case
        _lockstep(*_grid_point(topo_args, scheme, rate, cycles, **kw))

    @pytest.mark.parametrize("topo_args,topo_kw",
                             test_irregular_parity.POINTS,
                             ids=test_irregular_parity.POINT_IDS)
    def test_irregular_latencies(self, topo_args, topo_kw):
        """Chiplet and kite links differ in latency: one cycle's
        traversals land in several slots of the rings."""
        _lockstep(*_irregular_point(topo_args, topo_kw,
                                    NetworkConfig(pseudo=PSEUDO_SB), 0.20,
                                    200))

    def test_ring_wrap_on_a_chiplet_boundary(self):
        """Boundary latency 6 plus credit delay 3 is ``RD`` - 1: ten-slot
        rings, in which a switch-granted boundary flit is filed eight
        slots ahead and a credit three, wrapping every ten cycles."""
        config = NetworkConfig(pseudo=PSEUDO_SB, credit_delay=3)
        _, vector = _lockstep(*_irregular_point(
            ("chiplet", 2, 2, 1), dict(chiplets=2, chiplet_link_latency=6),
            config, 0.20, 200))
        assert vector._RD == 10
        assert int(vector._lay.op_latency.max()) + config.credit_delay == 9
        assert vector.cycle > 20 * vector._RD

    def test_four_lane_batch(self):
        """Each lane of a mixed batch against its own scalar run, after
        every cycle of the shared clock (no fast-forward on either side:
        skipping is stats-preserving, the batch's clock never skips what
        one lane alone could)."""
        topo = make_topology("mesh", 4, 4, 1)
        lanes = test_batched_parity.MIXED_LANES
        config = NetworkConfig(pseudo=PSEUDO_SB)
        net = BatchNetwork(topo, config, vc_policy="static",
                           seeds=[seed for _, _, seed, _ in lanes])
        solos = [Network(topo, config, vc_policy="static", seed=seed)
                 for _, _, seed, _ in lanes]
        sources = [[SyntheticTraffic(pattern, topo.num_terminals, rate, 5,
                                     seed=seed) for _ in range(2)]
                   for pattern, rate, seed, _ in lanes]
        ends = [cycles for *_, cycles in lanes]
        for solo, end in zip(solos, ends):
            solo.stats.warmup_cycles = end // 5
        net.run_batch([ours for ours, _ in sources], [0] * len(lanes),
                      warmups=[end // 5 for end in ends])   # warm-ups only
        sinks = [test_batched_parity.lane_sink(net, lane)
                 for lane in range(len(lanes))]
        while net.cycle < max(ends) or not net.quiescent():
            c = net.cycle
            for lane, (solo, end) in enumerate(zip(solos, ends)):
                if c < end:
                    sources[lane][0].tick(sinks[lane], c)
                    sources[lane][1].tick(solo, c)
                solo.step()
            net.step()
            for lane, solo in enumerate(solos):
                assert (net.lane_stats(lane).fingerprint()
                        == solo.stats.fingerprint()), (lane, c)
        assert all(solo.quiescent() for solo in solos)
        assert net.stats == solos[0].stats      # lane 0 is ``stats``


# -- observers ----------------------------------------------------------------

class _Observer(VectorHooks):
    """Counts what each observer hook is handed."""

    def __init__(self):
        self.seen = {"injects": 0, "ejects": 0, "buffer_writes": 0,
                     "sa": 0, "pc": 0, "buf": 0, "popped": 0}

    def bind(self, network):
        pass

    def on_cycle_start(self, cycle, network):
        pass

    def vec_inject(self, cycle, terminal):
        self.seen["injects"] += 1

    def vec_ejects(self, cycle, terminals):
        self.seen["ejects"] += len(terminals)

    def vec_buffer_writes(self, cycle, aivc):
        self.seen["buffer_writes"] += len(aivc)

    def vec_traversals(self, cycle, via, popped, ivcs):
        assert len(set(ivcs.tolist())) == len(ivcs)
        self.seen[via] += len(ivcs)
        self.seen["popped"] += popped * len(ivcs)


@pytest.mark.parametrize("case", [
    MESH8X8["sat-pseudo_sb"], MESH4X4["static-Baseline"],
    ROUTINGS["o1turn"], CONCENTRATED["cmesh4x4-trace-mshrs"],
], ids=["sat-pseudo_sb", "static-Baseline", "o1turn", "trace-mshrs"])
def test_observers_change_nothing_and_see_everything(case):
    """The event buffers are filled only while a hook is attached: the
    run is the same run either way, and what the hooks were handed adds
    up to the counters."""
    topo_args, scheme, rate, cycles, kw = case
    bare = _run(VectorNetwork, topo_args, scheme, rate, cycles, **kw)
    observer = _Observer()

    def observed(*args, **kwargs):
        net = VectorNetwork(*args, **kwargs)
        net.bind_probe(observer)
        net.attach_checker(VectorInvariantChecker(strict=True))
        return net
    net = _run(observed, topo_args, scheme, rate, cycles, **kw)
    assert not bare._vhooks and len(net._vhooks) == 2
    assert net.stats.fingerprint() == bare.stats.fingerprint()
    assert net.cycle == bare.cycle
    stats, seen = net.stats, observer.seen
    assert seen == {
        "injects": stats.injected_packets, "ejects": stats.ejected_packets,
        "buffer_writes": stats.buffer_writes,
        "sa": stats.sa_arbitrations,
        "pc": stats.sa_bypass_flits - stats.buf_bypass_flits,
        "buf": stats.buf_bypass_flits, "popped": stats.buffer_reads}


# -- manifests ----------------------------------------------------------------

_POINT = dict(topology="mesh", kx=4, ky=4, concentration=1, routing="xy",
              scheme=PSEUDO_SB, pattern="uniform", rate=0.25,
              synth_cycles=150, synth_warmup=30, seed=7)
#: A point ``auto`` sends to the vectorized core (19 flits per cycle).
_BUSY_POINT = dict(_POINT, kx=8, ky=8, rate=0.30)


def _solo(backend="vectorized", **point):
    return run_experiment(
        ExperimentConfig(backend=backend, **(point or _POINT)),
        use_cache=False)


class TestManifest:
    def test_both_paths_are_named_and_agree(self, compiled, monkeypatch):
        """Solo and batched, with a compiler: both name the artifact.
        Without one: the explicit backends refuse, ``auto`` and a
        grouped sweep answer the same rows from the scalar core."""
        fast = _solo(**_BUSY_POINT)
        lanes = run_batch_experiments(
            [ExperimentConfig(backend="batched", **_BUSY_POINT)])
        assert fast.manifest["step_kernel"] == compiled
        assert lanes[0].manifest["step_kernel"] == compiled
        # Result equality is every measured field; the lane's config
        # differs in the backend it names.
        assert fast == dataclasses.replace(lanes[0], config=fast.config)
        assert (fast.manifest["backend"], lanes[0].manifest["backend"]) == (
            "vectorized", "batched")
        monkeypatch.setenv("CC", "false")
        for backend in ("vectorized", "batched"):
            with pytest.raises(BackendUnsupportedError, match="no-compiler"):
                _solo(backend, **_BUSY_POINT)
        slow = _solo("auto", **_BUSY_POINT)
        assert slow.manifest["backend"] == "scalar"
        assert "step_kernel" not in slow.manifest
        assert fast == dataclasses.replace(slow, config=fast.config)
        swept = run_experiments(
            [ExperimentConfig(backend="auto", **dict(_BUSY_POINT, seed=seed))
             for seed in (7, 8)], max_workers=1, batch_size=2)
        assert [r.manifest["backend"] for r in swept] == ["scalar"] * 2
        assert fast == dataclasses.replace(swept[0], config=fast.config)

    def test_scalar_points_say_nothing(self):
        assert "step_kernel" not in _solo("scalar").manifest

    def test_point_spans_carry_it(self, compiled, tmp_path):
        from repro.telemetry.stream import read_stream
        stream = tmp_path / "sweep.telemetry.jsonl"
        run_experiments(
            [ExperimentConfig(backend="vectorized", **_POINT),
             *(ExperimentConfig(backend="batched", **dict(_POINT, seed=s))
               for s in (1, 2))],
            max_workers=1, batch_size=2, telemetry=str(stream))
        spans = [rec for rec in read_stream(str(stream))
                 if rec["ev"] == "point"]
        assert [span["backend"] for span in spans] == [
            "vectorized", "batched", "batched"]
        assert {span["step_kernel"] for span in spans} == {compiled}

    def test_a_span_names_the_core_that_ran(self, no_compiler, tmp_path):
        """...not the one the selector would have liked: without a
        compiler a solo ``auto`` point and a grouped ``auto`` unit (which
        refuses and reruns solo) land on the scalar core, and their
        spans say what their manifests say."""
        from repro.telemetry.stream import read_stream
        stream = tmp_path / "sweep.telemetry.jsonl"
        point = dict(_POINT, rate=0.1)
        results = run_experiments(
            [ExperimentConfig(backend="auto", **dict(point, kx=8, ky=8)),
             *(ExperimentConfig(backend="auto", **dict(point, seed=s))
               for s in (1, 2))],
            max_workers=1, batch_size=2, telemetry=str(stream))
        spans = {rec["idx"]: rec for rec in read_stream(str(stream))
                 if rec["ev"] == "point"}
        assert [spans[idx]["backend"] for idx in range(3)] == [
            r.manifest["backend"] for r in results] == ["scalar"] * 3
        assert [spans[idx]["solo_fallback"] for idx in range(3)] == [
            False, True, True]
        # What the selector chose stays on record, under ``decision``.
        assert spans[0]["decision"]["chosen"] == "vectorized"
        assert not any("step_kernel" in span for span in spans.values())


# -- the checked build --------------------------------------------------------

def _due_arrivals(net):
    """(ring index, input port, flit) of every arrival due this cycle."""
    row, (ports, fids) = net._rings["arrivals"]
    slot = net.cycle % net._RD
    due = int(net.ring_n[row, slot])
    return [((slot, k), int(ports[slot, k]), int(fids[slot, k]))
            for k in range(due)]


class TestCheckedBuild:
    def test_parity_grid_stays_in_bounds(self, checked_step):
        """Every array access of the grid, checked: same fingerprints
        as the release build, no fault."""
        for topo_args, scheme, rate, cycles, kw in GRID:
            checked = _run(VectorNetwork, topo_args, scheme, rate, cycles,
                           **kw)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "load_kernel", kernel.load)
                release = _run(VectorNetwork, topo_args, scheme, rate,
                               cycles, **kw)
            assert checked.step_kernel != release.step_kernel
            assert checked.stats.fingerprint() == release.stats.fingerprint()
            assert checked.cycle == release.cycle

    def test_scans_visit_what_is_occupied(self, checked_step):
        """The checked build counts the front flits VA, the SA-request
        scan and the PC-candidate scan examine. One busy lane of sixteen:
        every occupied VC is looked at, by each scan at most once,
        whatever the chip holds besides — 20 480 VCs here, all of which
        VA and the request scan used to read — and a cycle with nothing
        buffered looks at none."""
        topo = make_topology("mesh", 8, 8, 1)
        net = BatchNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                           seeds=range(1, 17))
        traffic = SyntheticTraffic("uniform", topo.num_terminals, 0.2, 5,
                                   seed=3)
        sink = test_batched_parity.lane_sink(net, 0)
        visits = net._kernel.n[-1:]
        net.step()
        assert visits[0] == 0 and net._NIVC == 16 * 64 * 5 * 4
        examined = busiest = 0
        while net.cycle < 150 or not net.quiescent():
            if net.cycle < 150:
                traffic.tick(sink, net.cycle)
            occupied = int((net.buf_len > 0).sum())
            net.step()
            assert occupied <= visits[0] <= 3 * occupied, net.cycle
            examined += int(visits[0])
            busiest = max(busiest, occupied)
        assert busiest > 100 and examined > 10_000
        assert not net.lane_stats(1).injected_packets
        net.check_invariants()

    def test_a_wild_index_is_named(self, checked_step):
        topo = make_topology("mesh", 4, 4, 1)
        net = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB))
        traffic = SyntheticTraffic("uniform", topo.num_terminals, 0.5, 5,
                                   seed=3)
        for _ in range(12):
            traffic.tick(net, net.cycle)
            net.step()
        _, dest, fid = _due_arrivals(net)[0]
        net.f_vc[fid] = 10 ** 6     # an arrival on VC one million
        wild = dest * net._V + 10 ** 6
        with pytest.raises(ProtocolError) as caught:
            net.step()
        assert str(caught.value) == (
            f"kernel bounds check: buf_len[{wild}] is outside its "
            f"{net._NIVC} elements")


# -- errors -------------------------------------------------------------------
# Each fault is seeded into a 4x4 chip a few cycles into saturating
# traffic, at the first cycle that offers it; the next step must raise
# the error the scalar core raises at the same place.

def _fronts(net):
    """(ivc, front flit) of every occupied VC whose front is ready."""
    ivcs = net.buf_len.nonzero()[0]
    fids = net.buf_fid[ivcs, net.buf_head[ivcs]]
    ready = net.f_ready[fids] <= net.cycle
    return zip(ivcs[ready].tolist(), fids[ready].tolist())


def _bypass_offers(net, head):
    """Arrivals of this cycle at the idle, empty VC of a valid circuit."""
    for _, dest, fid in _due_arrivals(net):
        ivc = dest * net._V + int(net.f_vc[fid])
        if (net.pc_valid[dest] and net.pc_in_vc[dest] == net.f_vc[fid]
                and net.buf_len[ivc] == 0 and net.ip_st[dest] < net.cycle
                and bool(net.f_head[fid]) == head):
            yield ivc


def _body_at_idle_front(net):
    for ivc, fid in _fronts(net):
        if net.vc_state[ivc] == 2 and not net.f_head[fid]:
            net.vc_state[ivc] = 0
            return True


def _body_on_inactive_circuit(net):
    for ivc, fid in _fronts(net):
        port = ivc // net._V
        if (net.vc_state[ivc] == 2 and not net.f_head[fid]
                and net.pc_valid[port]
                and net.pc_in_vc[port] == ivc % net._V):
            # Back to waiting for an output VC, and none to be had.
            net.vc_state[ivc] = 1
            base = net.vc_out_opid[ivc] * net._V
            net.cred_free[base:base + net._V] = False
            return True


def _head_on_allocated(net):
    for ivc in _bypass_offers(net, head=True):
        net.vc_state[ivc] = 2
        return True


def _body_arrives_inactive(net):
    for ivc in _bypass_offers(net, head=False):
        net.vc_state[ivc] = 0
        return True


def _buffer_overflow(net):
    for _, dest, fid in _due_arrivals(net):
        net.buf_len[dest * net._V + net.f_vc[fid]] = net._D
        return True


def _tail_before_its_body(net):
    row, (_, fids) = net._rings["ejections"]
    slot = net.cycle % net._RD
    for fid in fids[slot, :net.ring_n[row, slot]].tolist():
        if net.f_tail[fid]:
            net.p_rx[net.f_pkt[fid]] -= 1
            return True


def _seeded(fault, cycles):
    """The error ``fault`` provokes when seeded after ``cycles`` cycles,
    or None if that cycle does not offer it (or nothing is raised)."""
    topo = make_topology("mesh", 4, 4, 1)
    net = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                        vc_policy="static")
    traffic = SyntheticTraffic("uniform", topo.num_terminals, 0.5, 5, seed=3)
    for _ in range(cycles):
        traffic.tick(net, net.cycle)
        net.step()
    if not fault(net):
        return None
    # The summaries the scans walk say what the seeded state says.
    for name, summary in summaries(np, lambda state: getattr(net, state),
                                   net._R, net._Pi, net._Po, net._V).items():
        getattr(net, name)[:] = summary
    try:
        net.step()
    except (ProtocolError, BufferOverflowError, RuntimeError) as error:
        return type(error), str(error)
    return None


@pytest.mark.parametrize("fault,error", [
    (_body_at_idle_front,
     (ProtocolError, "body flit at the front of an idle VC")),
    (_body_on_inactive_circuit, (ProtocolError, "body flit on inactive VC")),
    (_head_on_allocated,
     (ProtocolError, "head flit arrived on a still-allocated VC")),
    (_body_arrives_inactive,
     (ProtocolError, "body flit arrived on an inactive VC")),
    (_buffer_overflow,
     (BufferOverflowError, "flit buffer overflow (capacity 4)")),
    (_tail_before_its_body,
     (RuntimeError, "NIC: tail arrived before all flits of its packet")),
], ids=lambda arg: arg.__name__.strip("_") if callable(arg) else "")
def test_seeded_faults_raise_what_the_numpy_phases_raise(fault, error):
    """...which is what the scalar router and NIC raise: the kernel
    answers a code, ``core.py`` raises the named error."""
    raised = next((error for cycles in range(8, 60)
                   if (error := _seeded(fault, cycles)) is not None), None)
    assert raised is not None, "no cycle offered the fault"
    assert raised == error


# -- storage: rings and pools -------------------------------------------------

def _saturated(**kw):
    topo = make_topology("mesh", 4, 4, 1)
    net = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB), seed=5, **kw)
    return net, SyntheticTraffic("uniform", topo.num_terminals, 0.5, 5,
                                 seed=5)


def test_a_ring_one_slot_too_shallow_is_refused_in_that_cycle():
    """Rings of ``RD`` - 1 slots hold everything but a switch-granted
    flit's arrival (granted now, across the switch next cycle, off the
    link one later: ``RD`` ahead). The first grant is refused by name,
    in its cycle, rather than filed into the slot of an earlier one."""
    healthy, traffic = _saturated()
    while not healthy.stats.sa_arbitrations:
        traffic.tick(healthy, healthy.cycle)
        healthy.step()
    first_grant = healthy.cycle - 1
    net, traffic = _saturated()
    net._kernel.chip.RD -= 1
    with pytest.raises(ProtocolError, match="calendar ring overflow: an "
                                            "event more than 3 cycles"):
        while True:
            traffic.tick(net, net.cycle)
            net.step()
    assert net.cycle == first_grant


def test_a_ring_slot_holds_one_arrival_per_input_port():
    """A slot that claims to be full already cannot take one more: the
    kernel answers the named error before it writes past the slot."""
    net, traffic = _saturated()
    for _ in range(12):
        traffic.tick(net, net.cycle)
        net.step()
    row, _ = net._rings["arrivals"]
    net.ring_n[row, (net.cycle + 1) % net._RD] = net._NIP
    with pytest.raises(ProtocolError, match="calendar ring overflow"):
        net.step()


def test_chip_follows_both_pools_as_they_grow(compiled):
    """An overloaded 8x8 outgrows the initial 512 packet slots and 1024
    flits with flits buffered all over the chip; the kernel must read
    and write the reallocated arrays — fields, free stack, links — from
    the next cycle on, and the run still equals the scalar core's."""
    nets = {}
    for cls in (Network, VectorNetwork):
        topo = make_topology("mesh", 8, 8, 1)
        net = nets[cls] = cls(topo, NetworkConfig(pseudo=PSEUDO_SB), seed=5)
        net.run(150, SyntheticTraffic("uniform", topo.num_terminals, 0.9, 5,
                                      seed=5))
        net.drain(max_cycles=500_000)
        net.check_invariants()
    net = nets[VectorNetwork]
    assert net.step_kernel == compiled
    assert net._pcap > 512 and net._fcap > 1024
    for name in (*core._PACKET_FIELDS, *core._FLIT_FIELDS, "fb_head"):
        assert getattr(net._kernel.chip, name) == getattr(
            net, name).ctypes.data
        assert getattr(net._kernel.chip, "n_" + name) == len(
            getattr(net, name))
    assert net.stats.fingerprint() == nets[Network].stats.fingerprint()
    assert net.cycle == nets[Network].cycle


def test_a_start_that_finds_the_flit_pool_full_is_refused_by_name():
    """``step`` grows the flit pool for the most a cycle can start; were
    that bound ever wrong the kernel must not write past the pool. Here
    the pool claims to be two flits from full and may not grow."""
    net, _ = _saturated()
    net.inject(Packet(0, 15, 5, 0))
    net._state[net._S_FLITS] = net._fcap - 2
    net._size_pool = lambda fields, old, need: old
    with pytest.raises(ProtocolError, match="flit pool exhausted"):
        net.step()
    # Nothing was taken: the packet is still queued, unstarted.
    assert net._num_queued == 1 and net._nflits == net._fcap - 2
    assert net.stats.injected_packets == 0


# -- loader -------------------------------------------------------------------

def _artifact(cache_home) -> Path:
    """The one artifact a cold ``load()`` into ``cache_home`` builds."""
    (path,) = (Path(cache_home) / "repro" / "kernel").iterdir()
    return path


@pytest.fixture(scope="module")
def reference(_private_kernel_cache):
    """The point every loader case must reproduce, from the session's
    warm cache (module scope: built before any case redirects it)."""
    return _solo()


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty cache no earlier ``load()`` of this process has seen."""
    home = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


def _fake_compiler(tmp_path, body: str) -> str:
    script = tmp_path / "fakecc"
    script.write_text("#!/bin/sh\n"
                      'if [ "$1" = --version ]; then echo fakecc 1.0; exit 0;'
                      " fi\n" + body + "\n")
    script.chmod(0o755)
    return str(script)


def test_an_installed_package_carries_the_source():
    """The cycle is built on the machine that runs it, so a wheel ships
    ``kernel.c`` as package data, beside the loader."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text("utf-8"))
    data = project["tool"]["setuptools"]["package-data"]
    assert data["repro.network.vectorized"] == ["kernel.c"]
    assert Path(kernel._SOURCE) == Path(kernel.__file__).with_name(
        "kernel.c")
    assert Path(kernel._SOURCE).is_file()


#: ``_solo()`` in an interpreter of its own, answering on stdout.
_RACER = f"""
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.network.config import PSEUDO_SB
point = {dict(_POINT, scheme=None)!r}
point["scheme"] = PSEUDO_SB
r = run_experiment(ExperimentConfig(backend="vectorized", **point),
                   use_cache=False)
print(r.manifest["step_kernel"], r.avg_latency, r.flit_hops)
"""


class TestLoader:
    def _refuses(self, reason, reference, *also):
        """No array core is built — the refusal names ``reason`` (and
        whatever else it should quote) and the way out — and ``auto``
        answers the same point from the scalar core."""
        assert reason in kernel.REASONS
        with pytest.raises(BackendUnsupportedError) as caught:
            _solo()
        message = str(caught.value)
        for part in (reason, "--backend scalar|auto", *also):
            assert part in message, message
        assert kernel.load().status == f"refused:{reason}"
        answered = _solo("auto")
        assert answered.manifest["backend"] == "scalar"
        assert reference == dataclasses.replace(answered,
                                                config=reference.config)

    def test_cold_build_is_sealed_and_owner_only(self, cold_cache,
                                                 reference):
        assert _solo().manifest["step_kernel"] == reference.manifest[
            "step_kernel"]
        path = _artifact(cold_cache)
        assert kernel._sealed(str(path))
        assert path.parent.stat().st_mode & 0o777 == 0o700
        # Keyed by what goes into the build, named in the manifest.
        key = hashlib.sha256(b"\0".join((
            Path(kernel._SOURCE).read_bytes(),
            " ".join(kernel.RELEASE_FLAGS).encode(),
            kernel._find_compiler(None)[1]))).hexdigest()
        assert path.name == f"step-{key[:32]}.so"
        assert reference.manifest["step_kernel"] == f"c:{key[:12]}"

    @pytest.mark.parametrize("damage", [
        lambda data: b"not an ELF file at all\n" * 40,
        lambda data: data[:len(data) // 2],
        lambda data: data[:-1],
        lambda data: b"",
    ], ids=["garbage", "truncated", "one-byte-short", "empty"])
    def test_a_damaged_artifact_is_rebuilt_not_loaded(self, damage,
                                                      cold_cache, reference,
                                                      tmp_path,
                                                      monkeypatch):
        _solo()
        path = _artifact(cold_cache)
        good = path.read_bytes()
        # A second cache with the damaged file already in place.
        other = tmp_path / "other"
        monkeypatch.setenv("XDG_CACHE_HOME", str(other))
        target = other / "repro" / "kernel" / path.name
        target.parent.mkdir(parents=True, mode=0o700)
        target.write_bytes(damage(good))
        assert not kernel._sealed(str(target))
        result = _solo()
        assert result.manifest["step_kernel"] == reference.manifest[
            "step_kernel"]
        assert result == reference
        assert kernel._sealed(str(target))
        assert [p.name for p in target.parent.iterdir()] == [path.name]

    def test_no_compiler(self, no_compiler, reference):
        self._refuses("no-compiler", reference, "$CC='false'")

    def test_compile_failed_leaves_nothing_behind(self, cold_cache,
                                                  reference, tmp_path,
                                                  monkeypatch):
        """...and says what the compiler said: its exit status and the
        last lines of its stderr, not the first."""
        fakecc = _fake_compiler(
            tmp_path, 'for n in 1 2 3 4 5 6 7 8; do '
                      'echo "kernel.c:$n: error: boom $n" >&2; done; exit 3')
        monkeypatch.setenv("CC", fakecc)
        self._refuses("compile-failed", reference, f"$CC={fakecc!r}",
                      "exit status 3", "kernel.c:8: error: boom 8")
        assert "boom 1" not in kernel.load().detail
        assert list((cold_cache / "repro" / "kernel").iterdir()) == []

    def test_a_killed_compile_is_swept_by_the_next_build(self, cold_cache):
        """SIGKILL runs no ``finally``: the temporary file of a compile
        that died is removed by the next build once no live compile can
        be that old; a young one is somebody else's build in progress."""
        cache = cold_cache / "repro" / "kernel"
        cache.mkdir(parents=True, mode=0o700)
        dead, live = cache / "build-dead.tmp", cache / "build-live.tmp"
        for path in (dead, live):
            path.write_bytes(b"half an object file")
        long_ago = time.time() - kernel._COMPILE_TIMEOUT_S - 60
        os.utime(dead, (long_ago, long_ago))
        assert _solo().manifest["step_kernel"].startswith("c:")
        left = sorted(p.name for p in cache.iterdir())
        assert len(left) == 2 and live.name in left
        assert kernel._sealed(str(cache / left[1 - left.index(live.name)]))

    def test_cache_home_is_a_file(self, cold_cache, reference):
        cold_cache.write_text("in the way")
        self._refuses("cache-unwritable", reference)

    def test_cache_open_to_others_is_refused(self, cold_cache, reference):
        (cold_cache / "repro" / "kernel").mkdir(parents=True)
        (cold_cache / "repro" / "kernel").chmod(0o755)
        self._refuses("cache-unwritable", reference)
        assert list((cold_cache / "repro" / "kernel").iterdir()) == []

    def test_sealed_but_unloadable(self, cold_cache, reference, tmp_path,
                                   monkeypatch):
        # A "compiler" whose output is not a shared object: sealed like
        # any artifact, refused by the dynamic loader.
        monkeypatch.setenv("CC", _fake_compiler(
            tmp_path, 'while [ "$1" != -o ]; do shift; done; '
                      'echo "not a shared object" > "$2"'))
        self._refuses("load-failed", reference)

    def test_wrong_abi_fails_the_self_test(self, cold_cache, reference,
                                           monkeypatch):
        monkeypatch.setattr(kernel, "ABI", kernel.ABI + 1)
        self._refuses("self-test-failed", reference)

    def test_bench_says_why_its_vectorized_gate_cannot_run(self, no_compiler,
                                                           capsys):
        with pytest.raises(BackendUnsupportedError):
            vectorized_overhead_gate(cycles=50)
        line = capsys.readouterr().out.strip()
        assert line.startswith("vectorized overhead gate: refused")
        for part in ("no-compiler", "$CC='false'", "--backend scalar|auto"):
            assert part in line

    def test_two_processes_race_a_cold_cache(self, cold_cache, reference):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        racers = [subprocess.Popen([sys.executable, "-c", _RACER], env=env,
                                   stdout=subprocess.PIPE, text=True)
                  for _ in range(2)]
        lines = [racer.communicate(timeout=300)[0].strip()
                 for racer in racers]
        assert [racer.returncode for racer in racers] == [0, 0]
        assert lines[0] == lines[1] == (
            f"{reference.manifest['step_kernel']} {reference.avg_latency} "
            f"{reference.flit_hops}")
        assert kernel._sealed(str(_artifact(cold_cache)))  # and no tmp file
