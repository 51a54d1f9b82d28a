"""The array core's invariant walk: clean runs, fault injection, lanes.

A checker that never fires is indistinguishable from one that cannot
fire, so beyond the clean runs (zero violations on every canonical
workload) this suite corrupts live state cells and asserts the walk
(``kernel.c``'s ``check_chip``, what ``VectorInvariantChecker`` raises)
reports the *right* rule with the *right* coordinates — including the
lane index on batched networks — and the *same* first violation as its
oracle, the numpy sweep of ``sweep_oracle.py``. Strictness, stride
pacing and the snapshot document round out the contract.

The ``summary_*`` rules get the same treatment on both builds of
``kernel.c``: one flipped bit per summary is named with its lane, router
and port — on the spot and by a run that goes on at stride 1 and 7, solo
and on four lanes — and a kernel with one ``summarise`` call compiled
out is caught by the walk in the cycle it first matters, by the drain
without one.
"""

import os
import subprocess
import sys

import pytest

np = pytest.importorskip("numpy")

import repro
from repro.core.violation import InvariantViolation
from repro.network.config import BASELINE, PSEUDO_SB, NetworkConfig
from repro.network.vectorized import (BatchNetwork, VectorInvariantChecker,
                                      VectorNetwork, core, kernel)
from repro.network.vectorized.kernel import summaries
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic

from .sweep_oracle import SweepOracle, free_packets, same_first, same_now


def _checked_run(scheme, rate, cycles, *, stride=1, strict=True,
                 topo_args=("mesh", 4, 4, 1), seed=7, drain=True,
                 oracle=False):
    """A run checked by the walk (and, with ``oracle``, swept by its
    oracle too): the network and the checker, or both checkers."""
    topo = make_topology(*topo_args)
    net = VectorNetwork(topo, NetworkConfig(pseudo=scheme), routing="xy",
                        vc_policy="dynamic", seed=seed)
    checker = VectorInvariantChecker(strict=strict, stride=stride)
    net.attach_checker(checker)
    checkers = [checker]
    if oracle:
        checkers.append(SweepOracle(strict=strict, stride=stride))
        net.bind_probe(checkers[-1])
    traffic = SyntheticTraffic("uniform", topo.num_terminals, rate, 5,
                               seed=seed)
    net.stats.warmup_cycles = cycles // 5
    net.run(cycles, traffic)
    if drain:
        net.drain(max_cycles=500_000)
        for each in checkers:
            each.finish(net)
    return (net, *checkers)


class TestCleanRuns:
    @pytest.mark.parametrize("scheme,rate", [
        (BASELINE, 0.02), (PSEUDO_SB, 0.02),
        (BASELINE, 0.30), (PSEUDO_SB, 0.30),
    ], ids=["low-baseline", "low-pseudo_sb",
            "sat-baseline", "sat-pseudo_sb"])
    def test_no_violations(self, scheme, rate):
        net, checker, oracle = _checked_run(scheme, rate, 300, oracle=True)
        assert checker.violations == [] == oracle.violations
        assert checker.sweeps == oracle.sweeps > 0
        doc = checker.snapshot()
        assert doc == {"violations": 0, "sweeps": checker.sweeps,
                       "stride": 1,
                       "pool_high_water": {"packets": net._npackets,
                                           "flits": net._nflits}}

    def test_checked_stats_identical_to_bare(self):
        topo = make_topology("mesh", 4, 4, 1)
        bare = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                             routing="xy", vc_policy="dynamic", seed=7)
        traffic = SyntheticTraffic("uniform", topo.num_terminals, 0.25, 5,
                                   seed=7)
        bare.stats.warmup_cycles = 60
        bare.run(300, traffic)
        bare.drain(max_cycles=500_000)
        checked, _ = _checked_run(PSEUDO_SB, 0.25, 300)
        assert checked.stats.fingerprint() == bare.stats.fingerprint()
        assert checked.probe is None and not checked._kernel.chip.events_on

    def test_stride_paces_sweeps(self):
        _, every = _checked_run(PSEUDO_SB, 0.10, 200)
        _, strided, oracle = _checked_run(PSEUDO_SB, 0.10, 200, stride=8,
                                          oracle=True)
        assert every.violations == [] and strided.violations == []
        # Fast-forwarded cycles never tick the stride counter, so the
        # exact ratio varies with quiescence; an 8x stride must still
        # cut sweeps by far more than half, and walks its oracle's.
        assert strided.sweeps < every.sweeps / 2
        assert strided.sweeps == oracle.sweeps

    def test_stride_validated(self):
        with pytest.raises(ValueError, match="stride"):
            VectorInvariantChecker(stride=0)


class TestFaultInjection:
    """Corrupted state cells must fire the matching rule, with
    coordinates pointing at the corrupted cell: the walk's first
    violation, which its oracle names too."""

    def _net(self):
        net, checker, oracle = _checked_run(PSEUDO_SB, 0.25, 200,
                                            strict=False, oracle=True)
        assert checker.violations == [] == oracle.violations
        return net, checker, oracle

    def test_credit_range(self):
        net, *checkers = self._net()
        net.cred[13] += 2  # above limit
        v = same_now(net, *checkers)
        assert v.rule == "credit_range"
        assert v.actual == int(net.cred[13])
        assert v.lane is None

    def test_credit_count(self):
        net, *checkers = self._net()
        ci = int((net.cred > 0).nonzero()[0][0])
        net.cred[ci] -= 1  # still within [0, limit], wrong count
        # Wrong twice over: against the flits downstream, and against
        # the output's credit sum the kernel keeps beside it, which the
        # walk reaches last.
        assert same_now(net, *checkers).rule == "credit_count"
        net.op_credsum[ci // net._V] -= 1
        net.cred[ci] += 1
        assert same_now(net, *checkers).rule == "summary_op_credsum"

    def test_conservation(self):
        net, *checkers = self._net()
        net.buf_len[7] += 1
        v = same_now(net, *checkers)
        assert v.rule == "conservation"
        pv = net._Pi * net._V
        assert v.router == 7 // pv
        assert v.port == (7 // net._V) % net._Pi
        assert v.vc == 7 % net._V

    def test_occupancy_caches(self):
        net, *checkers = self._net()
        net._r_buffered[3] += 1
        assert same_now(net, *checkers).rule == "occupancy_sync"
        net2, *checkers2 = self._net()
        net2._state[net2._S_BUFFERED] += 1
        assert same_now(net2, *checkers2).rule == "occupancy_total"

    def test_pc_holder_sync(self):
        # Saturated pseudo_sb keeps circuits alive mid-run; corrupt a
        # holder register before the drain so circuits still exist.
        net, checker, oracle = _checked_run(PSEUDO_SB, 0.30, 200,
                                            strict=False, drain=False,
                                            oracle=True)
        assert checker.violations == [] == oracle.violations
        valid = net.pc_valid.nonzero()[0]
        assert len(valid), "expected live circuits at saturation"
        opid = int((valid[0] // net._Pi) * net._Po
                   + net.pc_out_port[valid[0]])
        net.op_holder[opid] = -1
        assert same_now(net, checker, oracle).rule == "pc_holder_sync"

    def test_strict_raises(self):
        net, checker = _checked_run(PSEUDO_SB, 0.25, 200)
        net.cred[0] -= 1
        with pytest.raises(InvariantViolation, match="credit"):
            checker.finish(net)

    def test_non_strict_records_and_goes_on(self):
        net, checker = _checked_run(PSEUDO_SB, 0.25, 200, strict=False)
        net.cred[13] += 2
        for _ in range(3):
            net.step()
        # Found at the end of each cycle run; the run went on.
        assert [v.rule for v in checker.violations] == ["credit_range"] * 3
        assert [v.cycle for v in checker.violations] == list(
            range(net.cycle - 3, net.cycle))

    def test_violation_is_structured(self):
        net, *checkers = self._net()
        net.cred[13] += 2
        v = same_now(net, *checkers)
        doc = v.to_dict()
        assert doc["monitor"] == "vector_invariants"
        assert doc["rule"] == "credit_range"
        assert doc["cycle"] == net.cycle
        assert "credit counter" in str(v)


class TestBatchedLaneAttribution:
    def _batched(self):
        topo = make_topology("mesh", 4, 4, 1)
        net = BatchNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                           routing="xy", vc_policy="dynamic", seeds=[3, 11])
        checker, oracle = (VectorInvariantChecker(strict=False),
                           SweepOracle(strict=False))
        net.attach_checker(checker)
        net.bind_probe(oracle)
        traffics = [SyntheticTraffic("uniform", topo.num_terminals, rate,
                                     5, seed=seed)
                    for rate, seed in ((0.05, 3), (0.25, 11))]
        net.run_batch(traffics, [200, 200], warmups=[40, 40])
        net.drain(max_cycles=500_000)
        checker.finish(net)
        assert checker.violations == [] == oracle.violations
        return net, checker, oracle

    def test_lane_in_occupancy_violation(self):
        net, *checkers = self._batched()
        solo_routers = net._lay.R // net.lanes
        net._r_buffered[solo_routers + 5] += 1  # lane 1, router 5
        v = same_now(net, *checkers)
        assert v.rule == "occupancy_sync"
        assert v.lane == 1
        assert v.router == 5

    def test_lane_in_conservation_violation(self):
        net, *checkers = self._batched()
        solo_ivcs = net._lay.NIVC // net.lanes
        net.buf_len[solo_ivcs + 2] += 1  # lane 1, ivc 2
        v = same_now(net, *checkers)
        assert v.rule == "conservation"
        assert v.lane == 1
        assert v.router == 0


@pytest.fixture(params=["RELEASE_FLAGS", "CHECK_FLAGS"])
def either_build(request, monkeypatch):
    """Networks built from here on step through that build of the
    kernel."""
    built = kernel.load(getattr(kernel, request.param))
    assert built.status.startswith("c:"), built.refusal()
    monkeypatch.setattr(core, "load_kernel", lambda: built)


#: Every summary of ``kernel.c``'s table, with the element of lane 1,
#: router 5, port 2 (of a two-lane 4x4 mesh: 5 x 5 ports, 16 routers a
#: lane, all 32 in one word of ``r_map``) and the bit to flip in it.
_SEEDED = {
    "ip_occ": ((16 + 5) * 5 + 2, 3), "ip_act": ((16 + 5) * 5 + 2, 0),
    "r_occ": (16 + 5, 2), "r_wait": (16 + 5, 2), "r_map": (0, 16 + 5),
    "r_pcv": (16 + 5, 2), "r_pcinv": (16 + 5, 2), "r_held": (16 + 5, 2),
    "op_credsum": ((16 + 5) * 5 + 2, 0),
}


@pytest.mark.usefixtures("either_build")
class TestSummaries:
    """What the compiled cycle iterates instead of the state is proved
    against that state by every sweep."""

    def _mid_run(self):
        topo = make_topology("mesh", 4, 4, 1)
        net = BatchNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                           routing="xy", vc_policy="dynamic", seeds=[3, 11])
        checker, oracle = (VectorInvariantChecker(strict=False),
                           SweepOracle(strict=False))
        net.attach_checker(checker)
        net.bind_probe(oracle)
        net.run_batch([SyntheticTraffic("uniform", topo.num_terminals, 0.3,
                                        5, seed=seed) for seed in (3, 11)],
                      [120, 120])
        assert checker.violations == [] == oracle.violations
        assert checker.sweeps == oracle.sweeps >= 120
        assert net._buffered and net.pc_valid.any()
        return net, checker, oracle

    def test_the_table_is_the_checked_set(self):
        source = open(kernel._SOURCE, encoding="utf-8").read()
        table = source[source.index("summary     what it says"):]
        rows = [line.split()[1] for line in table.splitlines()[1:10]]
        net, *_ = self._mid_run()
        assert rows == list(_SEEDED) == list(summaries(
            np, lambda name: getattr(net, name), net._R, net._Pi, net._Po,
            net._V))

    @pytest.mark.parametrize("name", _SEEDED)
    def test_a_seeded_bug_is_named(self, name):
        net, *checkers = self._mid_run()
        index, bit = _SEEDED[name]
        _seed(net, name, index, bit)
        v = same_now(net, *checkers)
        assert v.rule == "summary_" + name
        assert (v.lane, v.router) == (1, 5)
        assert v.port == (None if name == "r_map" else 2)
        assert v.vc == (bit if name.startswith("ip_") else None)
        assert v.actual == int(getattr(net, name)[index]) != v.expected
        assert name in str(v)


class TestOneVerdict:
    """A summary seeded wrong mid-run is found by the walk inside the run
    as by the oracle after each cycle: the same first violation, at
    stride 1 and 7, solo and on four lanes. On the checked build, where
    a cycle that trips over the seeded summary before the next walk
    fails by name instead of writing past an array; at a load low enough
    that the seeded router keeps it until then."""

    @pytest.fixture(autouse=True)
    def checked(self, monkeypatch):
        built = kernel.load(kernel.CHECK_FLAGS)
        assert built.status.startswith("c:"), built.refusal()
        monkeypatch.setattr(core, "load_kernel", lambda: built)

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("lanes", [1, 4], ids=["solo", "4-lane"])
    @pytest.mark.parametrize("name", _SEEDED)
    def test_a_run_goes_on_to_one_verdict(self, name, lanes, stride):
        # Into lane 1 (the solo chip's only lane), at cycle 60.
        topo = make_topology("mesh", 4, 4, 1)
        lane = min(lanes - 1, 1)
        index, bit = _seeded_summary(name, lane)

        def build():
            if lanes == 1:
                return VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                                     seed=3)
            return BatchNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                                seeds=range(3, 3 + lanes))

        def drive(net):
            traffics = [SyntheticTraffic("uniform", topo.num_terminals,
                                         0.05, 5, seed=3 + k)
                        for k in range(lanes)]
            for cycles in (60, 40):
                if lanes == 1:
                    net.run(cycles, traffics[0])
                else:
                    net.run_batch(traffics, [cycles] * lanes)
                if net.cycle == 60:
                    _seed(net, name, index, bit)
        v = same_first(build, drive, stride)
        assert v["rule"] == "summary_" + name
        assert 60 <= v["cycle"] < 60 + stride
        assert (v["lane"], v["router"]) == (lane if lanes > 1 else None, 5)


class TestAStrayRestorableBit:
    """An ``r_pcinv`` bit on a port that names no circuit
    (``pc_out_port`` -1): the circuit upkeep restores nothing from it,
    so the walk names it as ``summary_r_pcinv`` at the bottom of the
    cycle it is first stepped with, the same way on every run and on the
    bounds-checked build, where no access falls outside its array."""

    @staticmethod
    def _verdict():
        """A strict stride-1 run at load 0.1 seeded at cycle 60 on a
        router holding flits (on the next cycle's work list) at an input
        port with no upstream, which no circuit can ever use; the
        violation and the (router, port) seeded."""
        topo = make_topology("mesh", 4, 4, 1)
        net = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB), seed=3)
        net.attach_checker(VectorInvariantChecker(strict=True))
        traffic = SyntheticTraffic("uniform", topo.num_terminals, 0.1, 5,
                                   seed=3)
        net.run(60, traffic)
        Pi = net._Pi
        r, p = next((r, p) for r in net._r_buffered.nonzero()[0].tolist()
                    for p in range(Pi)
                    if net._lay.ip_upbase[r * Pi + p] < 0)
        assert net.pc_out_port[r * Pi + p] == -1 and net.pc_in_vc[
            r * Pi + p] == -1
        net.r_pcinv[r] |= 1 << p
        with pytest.raises(InvariantViolation) as found:
            net.run(40, traffic)
        return found.value.to_dict(), (r, p)

    def test_named_alike_on_every_run_of_the_release_build(self):
        verdicts = [self._verdict() for _ in range(5)]
        assert all(each == verdicts[0] for each in verdicts)
        v, (r, p) = verdicts[0]
        assert (v["rule"], v["cycle"], v["router"], v["port"]) == (
            "summary_r_pcinv", 60, r, p)

    def test_no_access_out_of_bounds_on_the_checked_build(self,
                                                           monkeypatch):
        built = kernel.load(kernel.CHECK_FLAGS)
        assert built.status.startswith("c:"), built.refusal()
        monkeypatch.setattr(core, "load_kernel", lambda: built)
        v, (r, p) = self._verdict()
        assert (v["rule"], v["cycle"], v["router"], v["port"]) == (
            "summary_r_pcinv", 60, r, p)


class TestStaleSummary:
    """``-DREPRO_SEED_STALE_SUMMARY`` compiles out the ``summarise`` of
    a flit buffered into an empty VC: no scan ever sees that flit."""

    @pytest.fixture(autouse=True)
    def stale(self, monkeypatch):
        built = kernel.load((*kernel.CHECK_FLAGS,
                             "-DREPRO_SEED_STALE_SUMMARY"))
        assert built.status.startswith("c:"), built.refusal()
        monkeypatch.setattr(core, "load_kernel", lambda: built)

    @staticmethod
    def _found(stride):
        """What the walk and the oracle both raise on a run of it, and
        the latest cycle the first stale buffer write may be seen in: the
        first flit off an injection channel is sent at 0 at the earliest
        and buffered one cycle later; it is found at the next walk."""
        topo = make_topology("mesh", 4, 4, 1)
        v = same_first(
            lambda: VectorNetwork(topo, NetworkConfig(pseudo=BASELINE)),
            lambda net: net.run(100, SyntheticTraffic(
                "uniform", topo.num_terminals, 0.10, 5, seed=7)), stride)
        assert v["rule"] == "summary_ip_occ"
        assert v["expected"] and not v["actual"]
        return v["cycle"], 10 + stride - 1

    def test_the_checker_names_it_in_the_cycle_it_happens(self):
        cycle, latest = self._found(1)
        assert 1 <= cycle <= latest

    def test_at_stride_7_at_the_next_walk(self):
        cycle, latest = self._found(7)
        assert 1 <= cycle <= latest

    def test_the_drain_ends_without_one(self):
        topo = make_topology("mesh", 4, 4, 1)
        net = VectorNetwork(topo, NetworkConfig(pseudo=BASELINE))
        net.run(100, SyntheticTraffic("uniform", topo.num_terminals, 0.10, 5,
                                      seed=7))
        assert net.stats.buffer_writes and not net.stats.flit_hops
        with pytest.raises(RuntimeError, match="failed to drain"):
            net.drain(max_cycles=500)


def _drained_chip(lanes):
    """A 4x4 mesh, solo or as two lanes, run at saturation and drained:
    circuits left valid, every pool slot and block free again."""
    topo = make_topology("mesh", 4, 4, 1)
    config = NetworkConfig(pseudo=PSEUDO_SB)
    seeds = (3, 11)[:lanes]
    traffics = [SyntheticTraffic("uniform", topo.num_terminals, 0.3, 5,
                                 seed=seed) for seed in seeds]
    if lanes == 1:
        net = VectorNetwork(topo, config, seed=seeds[0])
        net.run(120, traffics[0])
    else:
        net = BatchNetwork(topo, config, seeds=seeds)
        net.run_batch(traffics, [120] * lanes)
    net.drain()
    assert net._walk(drained=True) is None
    assert net.pc_valid.any() and net._npackets and net._nflits
    return net


def _seed(net, name, index, bit):
    """Summary ``name`` wrong at ``index``: one more credit, or ``bit``
    flipped."""
    if name == "op_credsum":
        getattr(net, name)[index] += 1
    else:
        getattr(net, name)[index] ^= 1 << bit


def _seeded_summary(name, lane):
    """``_SEEDED``'s element of summary ``name`` moved to ``lane`` (of a
    4x4 mesh: 16 routers of 5 ports a lane) and its bit."""
    index, bit = _SEEDED[name]
    shift = 16 - 16 * lane
    if name == "r_map":
        return index, bit - shift
    return index - shift * (5 if name.startswith(("ip_", "op_")) else 1), bit


def _credit(net, lane):
    """One credit short on an output VC of router 5 of ``lane``."""
    ci = (lane * 16 + 5) * net._Po * net._V + 2 * net._V
    net.cred[ci] -= 1


def _circuit(net, lane):
    """A valid circuit of ``lane`` switched off without its holder."""
    per_lane = net._NIP // net._lanes
    pp = int(net.pc_valid[lane * per_lane:].nonzero()[0][0]) + lane * per_lane
    net.pc_valid[pp] = False


def _shared_output(net, lane):
    """A second circuit on the output a valid circuit of ``lane`` holds,
    from another port of its router."""
    per_lane = net._NIP // net._lanes
    pp = int(net.pc_valid[lane * per_lane:].nonzero()[0][0]) + lane * per_lane
    other = pp + 1 if (pp + 1) % net._Pi else pp - 1
    net.pc_valid[other] = True
    net.pc_out_port[other] = net.pc_out_port[pp]


def _slot_of(net, lane):
    """A free packet slot whose last packet came from ``lane``, and its
    height on the free stack."""
    free = free_packets(net).tolist()
    at = next(i for i, k in enumerate(free)
              if net.p_src[k] // net._T_local == lane)
    return free[at], at


def _double_free(net, lane):
    """A slot of ``lane`` pushed on the free stack a second time, over
    another slot's entry."""
    k, at = _slot_of(net, lane)
    top = int(net._state[net._S_P_FREE]) - 1
    net.p_free[top if top != at else top - 1] = k


def _leaked_slot(net, lane):
    """A slot of ``lane`` taken off the free stack and never used."""
    k, at = _slot_of(net, lane)
    top = int(net._state[net._S_P_FREE]) - 1
    net.p_free[at], net.p_free[top] = net.p_free[top], k
    net._state[net._S_P_FREE] = top


def _left_flit(net, lane):
    """A flit left in an input buffer of router 5 of ``lane``."""
    ivc = ((lane * 16 + 5) * net._Pi + 2) * net._V + 1
    net.buf_len[ivc] = 1


_CORRUPTIONS = {
    "credit": (_credit, "credit_count", "credit_count"),
    "circuit": (_circuit, "pc_holder_sync", "pc_holder_sync"),
    "shared-output": (_shared_output, "pc_output_shared",
                      "pc_output_shared"),
    "free-stack-duplicate": (_double_free, "packet_double_free",
                             "pool_double_free"),
    "leaked-slot": (_leaked_slot, "packet_leaked", "pool_accounting"),
    # Not drained after all: the live rules name it first.
    "left-flit": (_left_flit, "occupancy_sync", "occupancy_sync"),
    **{f"summary-{name}": (name, "summary_" + name, "summary_" + name)
       for name in _SEEDED},
}


@pytest.mark.usefixtures("either_build")
class TestDrainedWalk:
    """The end-of-run check of a drained array chip is the same walk,
    which then also finds what a drained chip may not hold; whatever it
    finds is raised as the oracle's sweep raises it."""

    @pytest.mark.parametrize("lanes", [1, 2], ids=["solo", "2-lane"])
    @pytest.mark.parametrize("case", _CORRUPTIONS)
    def test_named_as_the_sweep_names_it(self, case, lanes):
        net = _drained_chip(lanes)
        corrupt, finding, rule = _CORRUPTIONS[case]
        lane = lanes - 1
        if isinstance(corrupt, str):
            _seed(net, corrupt, *_seeded_summary(corrupt, lane))
        else:
            corrupt(net, lane)
        assert net._walk(drained=True)[0] == finding
        with pytest.raises(InvariantViolation) as walked:
            net.check_invariants()
        oracle = SweepOracle(strict=True)
        oracle.bind(net)
        with pytest.raises(InvariantViolation) as swept:
            oracle.sweep(net.cycle)
        assert walked.value.rule == rule
        assert walked.value.to_dict() == swept.value.to_dict()
        assert walked.value.lane == (1 if lanes == 2 else None)

    @pytest.mark.parametrize("case", ["free-stack-duplicate",
                                      "summary-op_credsum"])
    def test_the_walk_sets_back_what_it_writes(self, case):
        # Stopped in the pools, and after them: the credit counters it
        # credits the returns still due to and the marks it counts the
        # free lists in read as before; it keeps its record (``walk``)
        # and the occupied ports it listed in SA's scratch (``cand_ip``).
        net = _drained_chip(2)
        if case == "free-stack-duplicate":
            _double_free(net, 1)
        else:
            net.op_credsum[3] += 1
        assert net.ring_n[2].any(), "no credit return still due"
        before = {name: array.copy()
                  for name, array in net._kernel._arrays.items()
                  if name not in ("walk", "cand_ip")}
        assert net._walk(drained=True)[0] == _CORRUPTIONS[case][1]
        for name, array in before.items():
            assert np.array_equal(net._kernel._arrays[name], array), name
        assert not net.p_mark.any() and not net.f_mark.any()

    @pytest.mark.parametrize("side", ["input", "output"])
    def test_a_vc_left_busy_is_named_by_the_walk_alone(self, side):
        # An input VC in VA (only ACTIVE ones have a summary bit), an
        # output VC still owned: no rule of the sweep sees either.
        net = _drained_chip(2)
        ivc = ((16 + 5) * 5 + 2) * 4 + 1    # lane 1, router 5, port 2
        if side == "input":
            net.vc_state[ivc] = 1    # vc.VCState.VA
        else:
            net.cred_free[ivc] = False    # that output VC's credit index
        oracle = SweepOracle(strict=True)
        oracle.bind(net)
        oracle.sweep(net.cycle)
        with pytest.raises(InvariantViolation) as walked:
            net.check_invariants()
        v = walked.value
        assert (v.rule, v.lane, v.router, v.port, v.vc) == (
            "drained", 1, 5, 2, 1)
        assert (v.expected, v.actual) == ((0, 1) if side == "input"
                                          else (1, 0))


class TestImports:
    def test_building_a_compiled_network_loads_no_monitor_suite(self):
        """Construction reads the summaries from ``kernel``; the checker
        (``obs``) and every ``repro.monitor`` module stay unloaded until
        a checked run or a drained-chip finding asks for them."""
        code = (
            "import sys\n"
            "from repro.network.config import NetworkConfig\n"
            "from repro.network.vectorized import VectorNetwork\n"
            "from repro.topology import make_topology\n"
            "VectorNetwork(make_topology('mesh', 4, 4, 1), NetworkConfig())\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('repro.monitor')"
            " or m == 'repro.network.vectorized.obs'))\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.split("\n")[-2] == str([])
