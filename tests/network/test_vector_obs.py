"""The vectorized invariant checker: clean runs, fault injection, lanes.

A checker that never fires is indistinguishable from one that cannot
fire, so beyond the clean-run sweeps (zero violations on every canonical
workload) this suite corrupts live state cells and asserts the next
sweep reports the *right* rule with the *right* coordinates — including
the lane index on batched networks. Strictness, stride pacing and the
snapshot document round out the contract.

The ``summary_*`` rules get the same treatment on both builds of
``kernel.c``: one flipped bit per summary is named with its lane, router
and port, and a kernel with one ``summarise`` call compiled out is caught
by the checker in the cycle it first matters, by the drain without one.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core.violation import InvariantViolation
from repro.network.config import BASELINE, PSEUDO_SB, NetworkConfig
from repro.network.vectorized import (BatchNetwork, VectorInvariantChecker,
                                      VectorNetwork, core, kernel)
from repro.network.vectorized.obs import summaries
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic


def _checked_run(scheme, rate, cycles, *, stride=1, strict=True,
                 topo_args=("mesh", 4, 4, 1), seed=7, drain=True):
    topo = make_topology(*topo_args)
    net = VectorNetwork(topo, NetworkConfig(pseudo=scheme), routing="xy",
                        vc_policy="dynamic", seed=seed)
    checker = VectorInvariantChecker(strict=strict, stride=stride)
    net.attach_checker(checker)
    traffic = SyntheticTraffic("uniform", topo.num_terminals, rate, 5,
                               seed=seed)
    net.stats.warmup_cycles = cycles // 5
    net.run(cycles, traffic)
    if drain:
        net.drain(max_cycles=500_000)
        checker.finish(net)
    return net, checker


class TestCleanRuns:
    @pytest.mark.parametrize("scheme,rate", [
        (BASELINE, 0.02), (PSEUDO_SB, 0.02),
        (BASELINE, 0.30), (PSEUDO_SB, 0.30),
    ], ids=["low-baseline", "low-pseudo_sb",
            "sat-baseline", "sat-pseudo_sb"])
    def test_no_violations(self, scheme, rate):
        net, checker = _checked_run(scheme, rate, 300)
        assert checker.violations == []
        assert checker.sweeps > 0
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

    def test_stride_paces_sweeps(self):
        _, every = _checked_run(PSEUDO_SB, 0.10, 200)
        _, strided = _checked_run(PSEUDO_SB, 0.10, 200, stride=8)
        assert every.violations == [] and strided.violations == []
        # Fast-forwarded cycles never tick the stride counter, so the
        # exact ratio varies with quiescence; an 8x stride must still
        # cut sweeps by far more than half.
        assert strided.sweeps < every.sweeps / 2

    def test_stride_validated(self):
        with pytest.raises(ValueError, match="stride"):
            VectorInvariantChecker(stride=0)


class TestFaultInjection:
    """Corrupted state cells must fire the matching rule, with
    coordinates pointing at the corrupted cell."""

    def _net(self, strict=False):
        net, checker = _checked_run(PSEUDO_SB, 0.25, 200, strict=strict)
        assert checker.violations == []
        return net, checker

    def test_credit_range(self):
        net, checker = self._net()
        net.cred[13] += 2  # above limit
        checker.sweep(net.cycle)
        rules = {v.rule for v in checker.violations}
        assert "credit_range" in rules
        v = next(v for v in checker.violations if v.rule == "credit_range")
        assert v.actual == int(net.cred[13])
        assert v.lane is None

    def test_credit_count(self):
        net, checker = self._net()
        ci = int((net.cred > 0).nonzero()[0][0])
        net.cred[ci] -= 1  # still within [0, limit], wrong count
        checker.sweep(net.cycle)
        # Seen twice: against the flits downstream, and against the
        # output's credit sum the kernel keeps beside it.
        assert {v.rule for v in checker.violations} == {
            "credit_count", "summary_op_credsum"}

    def test_conservation(self):
        net, checker = self._net()
        net.buf_len[7] += 1
        checker.sweep(net.cycle)
        rules = [v.rule for v in checker.violations]
        assert "conservation" in rules
        v = checker.violations[0]
        pv = net._Pi * net._V
        assert v.router == 7 // pv
        assert v.port == (7 // net._V) % net._Pi
        assert v.vc == 7 % net._V

    def test_occupancy_caches(self):
        net, checker = self._net()
        net._r_buffered[3] += 1
        checker.sweep(net.cycle)
        rules = {v.rule for v in checker.violations}
        assert "occupancy_sync" in rules
        net2, checker2 = self._net()
        net2._state[net2._S_BUFFERED] += 1
        checker2.sweep(net2.cycle)
        assert {v.rule for v in checker2.violations} == {"occupancy_total"}

    def test_pc_holder_sync(self):
        # Saturated pseudo_sb keeps circuits alive mid-run; corrupt a
        # holder register before the drain so circuits still exist.
        net, checker = _checked_run(PSEUDO_SB, 0.30, 200, strict=False,
                                    drain=False)
        assert checker.violations == []
        valid = net.pc_valid.nonzero()[0]
        assert len(valid), "expected live circuits at saturation"
        opid = int((valid[0] // net._Pi) * net._Po
                   + net.pc_out_port[valid[0]])
        net.op_holder[opid] = -1
        checker.sweep(net.cycle)
        assert {v.rule for v in checker.violations} == {
            "pc_holder_sync", "summary_r_held"}

    def test_strict_raises(self):
        net, checker = self._net(strict=True)
        net.cred[0] -= 1
        with pytest.raises(InvariantViolation, match="credit"):
            checker.sweep(net.cycle)

    def test_violation_is_structured(self):
        net, checker = self._net()
        net.cred[13] += 2
        checker.sweep(net.cycle)
        v = checker.violations[0]
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
        checker = VectorInvariantChecker(strict=False)
        net.attach_checker(checker)
        traffics = [SyntheticTraffic("uniform", topo.num_terminals, rate,
                                     5, seed=seed)
                    for rate, seed in ((0.05, 3), (0.25, 11))]
        net.run_batch(traffics, [200, 200], warmups=[40, 40])
        net.drain(max_cycles=500_000)
        checker.finish(net)
        assert checker.violations == []
        return net, checker

    def test_lane_in_occupancy_violation(self):
        net, checker = self._batched()
        solo_routers = net._lay.R // net.lanes
        net._r_buffered[solo_routers + 5] += 1  # lane 1, router 5
        checker.sweep(net.cycle)
        v = next(v for v in checker.violations
                 if v.rule == "occupancy_sync")
        assert v.lane == 1
        assert v.router == 5

    def test_lane_in_conservation_violation(self):
        net, checker = self._batched()
        solo_ivcs = net._lay.NIVC // net.lanes
        net.buf_len[solo_ivcs + 2] += 1  # lane 1, ivc 2
        checker.sweep(net.cycle)
        v = checker.violations[0]
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
        checker = VectorInvariantChecker(strict=False)
        net.attach_checker(checker)
        net.run_batch([SyntheticTraffic("uniform", topo.num_terminals, 0.3,
                                        5, seed=seed) for seed in (3, 11)],
                      [120, 120])
        assert checker.violations == [] and checker.sweeps >= 120
        assert net._buffered and net.pc_valid.any()
        return net, checker

    def test_the_table_is_the_checked_set(self):
        source = open(kernel._SOURCE, encoding="utf-8").read()
        table = source[source.index("summary     what it says"):]
        rows = [line.split()[1] for line in table.splitlines()[1:10]]
        net, _ = self._mid_run()
        assert rows == list(_SEEDED) == list(summaries(
            np, lambda name: getattr(net, name), net._R, net._Pi, net._Po,
            net._V))

    @pytest.mark.parametrize("name", _SEEDED)
    def test_a_seeded_bug_is_named(self, name):
        net, checker = self._mid_run()
        index, bit = _SEEDED[name]
        if name == "op_credsum":
            getattr(net, name)[index] += 1
        else:
            getattr(net, name)[index] ^= 1 << bit
        checker.sweep(net.cycle)
        (v,) = checker.violations
        assert v.rule == "summary_" + name
        assert (v.lane, v.router) == (1, 5)
        assert v.port == (None if name == "r_map" else 2)
        assert v.vc == (bit if name.startswith("ip_") else None)
        assert v.actual == int(getattr(net, name)[index]) != v.expected
        assert name in str(v)


class TestStaleSummary:
    """``-DREPRO_SEED_STALE_SUMMARY`` compiles out the ``summarise`` of
    a flit buffered into an empty VC: no scan ever sees that flit."""

    @pytest.fixture(autouse=True)
    def stale(self, monkeypatch):
        built = kernel.load((*kernel.CHECK_FLAGS,
                             "-DREPRO_SEED_STALE_SUMMARY"))
        assert built.status.startswith("c:"), built.refusal()
        monkeypatch.setattr(core, "load_kernel", lambda: built)

    def test_the_checker_names_it_in_the_cycle_it_happens(self):
        with pytest.raises(InvariantViolation) as caught:
            _checked_run(BASELINE, 0.10, 100)
        v = caught.value
        assert v.rule == "summary_ip_occ" and v.expected and not v.actual
        # The first flit off an injection channel: sent at 0 at the
        # earliest, buffered one cycle later.
        assert 1 <= v.cycle <= 10

    def test_the_drain_ends_without_one(self):
        topo = make_topology("mesh", 4, 4, 1)
        net = VectorNetwork(topo, NetworkConfig(pseudo=BASELINE))
        net.run(100, SyntheticTraffic("uniform", topo.num_terminals, 0.10, 5,
                                      seed=7))
        assert net.stats.buffer_writes and not net.stats.flit_hops
        with pytest.raises(RuntimeError, match="failed to drain"):
            net.drain(max_cycles=500)
