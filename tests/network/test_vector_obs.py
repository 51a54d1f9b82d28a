"""The vectorized invariant checker: clean runs, fault injection, lanes.

A checker that never fires is indistinguishable from one that cannot
fire, so beyond the clean-run sweeps (zero violations on every canonical
workload) this suite corrupts live state cells and asserts the next
sweep reports the *right* rule with the *right* coordinates — including
the lane index on batched networks. Strictness, stride pacing and the
snapshot document round out the contract.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core.violation import InvariantViolation
from repro.network.config import BASELINE, PSEUDO_SB, NetworkConfig
from repro.network.vectorized import (BatchNetwork, VectorInvariantChecker,
                                      VectorNetwork)
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
        assert {v.rule for v in checker.violations} == {"credit_count"}

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
        assert {v.rule for v in checker.violations} == {"pc_holder_sync"}

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
