"""Backend parity: the vectorized core is bit-identical to the scalar one.

Every supported configuration must produce the same ``NetworkStats``
fingerprint, the same latency histogram, and the same final cycle on
both backends — the vectorized core is a performance backend, never a
semantic fork. The grid here covers the canonical bench workloads (at
reduced cycles), every pseudo-circuit scheme, both VC policies, every
routing algorithm, every point-to-point topology — EVC's express mesh,
Fig. 14's comparison point, included — and monitored (``check=True``)
scalar runs cross-checked against vectorized ones.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.evc import EvcMesh, EvcRouting
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.traces import get_trace
from repro.network.config import (ALL_SCHEMES, BASELINE, PSEUDO_SB,
                                  NetworkConfig)
from repro.network.simulator import Network
from repro.network.vectorized import VectorNetwork
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic
from repro.traffic.trace import TraceReplayTraffic

from .sweep_oracle import SweepOracle


def chip(topo_args, routing):
    """The topology ``topo_args`` names and the routing to build on it:
    ``("evc_mesh", kx, ky, concentration)`` is EVC's express mesh under
    EVC routing (as ``experiment.chip_plan`` builds it), anything else a
    registry topology under ``routing``."""
    if topo_args[0] == "evc_mesh":
        topo = EvcMesh(*topo_args[1:])
        return topo, EvcRouting(topo)
    return make_topology(*topo_args), routing


def _run(cls, topo_args, scheme, rate, cycles, *, routing="xy",
         vc_policy="dynamic", seed=7, packet_size=5, num_vcs=4,
         benchmark=None, pattern="uniform"):
    """One point; ``benchmark`` replays that CMP trace (``cycles`` long,
    MSHR-throttled like the fig8 points) instead of synthetic traffic."""
    topo, routing = chip(topo_args, routing)
    config = NetworkConfig(num_vcs=num_vcs, pseudo=scheme,
                           mshrs=4 if benchmark else 0)
    net = cls(topo, config, routing=routing, vc_policy=vc_policy,
              seed=seed)
    net.stats.warmup_cycles = cycles // 5
    if benchmark:
        traffic = TraceReplayTraffic(get_trace(benchmark, cycles=cycles,
                                               warmup=200, seed=seed))
        net.run(traffic.horizon, traffic)
    else:
        traffic = SyntheticTraffic(pattern, topo.num_terminals, rate,
                                   packet_size, seed=seed)
        net.run(cycles, traffic)
    net.drain(max_cycles=500_000)
    net.check_invariants()
    if isinstance(net, VectorNetwork):
        both_checks_pass(net)
    return net


def both_checks_pass(net):
    """The end-of-run walk of ``kernel.c`` finds nothing on the drained
    array chip ``net``, and a strict sweep of its oracle agrees."""
    assert net.quiescent() and net._walk(drained=True) is None
    oracle = SweepOracle(strict=True)
    oracle.bind(net)
    oracle.sweep(net.cycle)


def assert_parity(topo_args, scheme, rate, cycles, kw):
    scalar = _run(Network, topo_args, scheme, rate, cycles, **kw)
    vector = _run(VectorNetwork, topo_args, scheme, rate, cycles, **kw)
    assert scalar.stats.fingerprint() == vector.stats.fingerprint()
    assert scalar.stats.latency_histogram == vector.stats.latency_histogram
    assert scalar.cycle == vector.cycle


def _case(topo_args, scheme, rate, cycles, **kw):
    return topo_args, scheme, rate, cycles, kw


# The grid as data, one table per test, keyed by test id: ``_run`` takes
# any row, and tests/network/test_vector_reach.py re-runs every row on
# the array cores under a profiler.

#: The bench's canonical 8x8 workloads, at reduced cycles.
MESH8X8 = {
    "low-baseline": _case(("mesh", 8, 8, 1), BASELINE, 0.02, 400),
    "low-pseudo_sb": _case(("mesh", 8, 8, 1), PSEUDO_SB, 0.02, 400),
    "sat-baseline": _case(("mesh", 8, 8, 1), BASELINE, 0.30, 400),
    "sat-pseudo_sb": _case(("mesh", 8, 8, 1), PSEUDO_SB, 0.30, 400),
}
#: Every scheme x VC policy near saturation on a small mesh.
MESH4X4 = {
    f"{vc_policy}-{scheme.label}": _case(("mesh", 4, 4, 1), scheme, 0.25,
                                         400, vc_policy=vc_policy)
    for vc_policy in ("dynamic", "static") for scheme in ALL_SCHEMES}
ROUTINGS = {
    routing: _case(("mesh", 4, 4, 1), PSEUDO_SB, 0.20, 300, routing=routing)
    for routing in ("xy", "yx", "o1turn")}
CONCENTRATED = {
    "cmesh": _case(("cmesh", 2, 2, 4), PSEUDO_SB, 0.15, 300),
    "fbfly": _case(("fbfly", 2, 2, 4), PSEUDO_SB, 0.15, 300),
    # 10-port routers: arbiters wider than the 8-bit grant table, so
    # ``_rr_pick`` takes its formula path (the Fig. 13 shape).
    "fbfly4x4-wide-arbiters": _case(("fbfly", 4, 4, 4), PSEUDO_SB, 0.15,
                                    300),
    # More VCs than one ``packbits`` byte: the wide NIC send mask.
    "fbfly-12vcs": _case(("fbfly", 2, 2, 4), PSEUDO_SB, 0.15, 300,
                         num_vcs=12),
    # The fig8 point shape: CMP trace replay behind the MSHR gate,
    # stepped through ``fast_forward`` between injections.
    "cmesh4x4-trace-mshrs": _case(("cmesh", 4, 4, 4), PSEUDO_SB, 0.15, 300,
                                  benchmark="radix", routing="o1turn"),
}
SEEDS = {
    str(seed): _case(("mesh", 4, 4, 1), PSEUDO_SB, 0.30, 300, seed=seed)
    for seed in (1, 11, 42)}
#: What the compiled source draws that ``uniform`` on a power of two
#: does not: ``hotspot``'s second draw, a table, and 12 terminals, where
#: ``randrange`` rejects some draws and no bit pattern applies.
PATTERNS = {
    f"{name}-{pattern}": _case(topo_args, PSEUDO_SB, 0.15, 300,
                               pattern=pattern)
    for name, topo_args, patterns in (
        ("mesh4x4", ("mesh", 4, 4, 1), ("hotspot", "transpose")),
        ("mesh4x3", ("mesh", 4, 3, 1), ("uniform", "hotspot", "tornado")))
    for pattern in patterns}
#: Masks narrower and wider than the 5 ports x 4 VCs of a mesh router:
#: one VC a port (every summary a single bit, VA with nothing to
#: choose) and eight, on a 5-port mesh and on the 10-port routers of the
#: 4x4 flattened butterfly.
WIDTHS = {
    f"{name}-{num_vcs}vcs": _case(topo_args, PSEUDO_SB, rate, 300,
                                  num_vcs=num_vcs)
    for name, topo_args in (("mesh4x4", ("mesh", 4, 4, 1)),
                            ("fbfly4x4", ("fbfly", 4, 4, 4)))
    for num_vcs, rate in ((1, 0.08), (8, 0.25))}
#: EVC (Fig. 14's baseline): express channels on ports 4-7 with their
#: own half of the VCs, so the VC window follows the output port. Low
#: load and saturation on the paper's 8x8, the static policy, eight VCs,
#: and the Fig. 14 trace shapes (fma3d behind the MSHR gate).
EVC = {
    "evc8x8-low": _case(("evc_mesh", 8, 8, 1), BASELINE, 0.05, 400),
    "evc8x8-sat": _case(("evc_mesh", 8, 8, 1), BASELINE, 0.30, 400),
    "evc4x4-static": _case(("evc_mesh", 4, 4, 1), BASELINE, 0.25, 300,
                           vc_policy="static"),
    "evc4x4-8vcs": _case(("evc_mesh", 4, 4, 1), BASELINE, 0.30, 300,
                         num_vcs=8),
    "evc8x8-trace": _case(("evc_mesh", 8, 8, 1), BASELINE, 0.0, 300,
                          benchmark="fma3d"),
    "evc-cmesh4x4-trace": _case(("evc_mesh", 4, 4, 4), BASELINE, 0.0, 300,
                                benchmark="fma3d"),
}
GRID = [*MESH8X8.values(), *MESH4X4.values(), *ROUTINGS.values(),
        *CONCENTRATED.values(), *SEEDS.values(), *PATTERNS.values(),
        *WIDTHS.values(), *EVC.values()]


class TestCanonicalWorkloads:
    @pytest.mark.parametrize("case", MESH8X8.values(), ids=MESH8X8)
    def test_mesh8x8(self, case):
        assert_parity(*case)


class TestSchemeGrid:
    @pytest.mark.parametrize("case", MESH4X4.values(), ids=MESH4X4)
    def test_mesh4x4(self, case):
        assert_parity(*case)


class TestRoutingAndTopology:
    @pytest.mark.parametrize("case", ROUTINGS.values(), ids=ROUTINGS)
    def test_routings(self, case):
        assert_parity(*case)

    @pytest.mark.parametrize("case", CONCENTRATED.values(),
                             ids=CONCENTRATED)
    def test_concentrated_topologies(self, case):
        assert_parity(*case)

    @pytest.mark.parametrize("case", SEEDS.values(), ids=SEEDS)
    def test_seeds(self, case):
        assert_parity(*case)

    @pytest.mark.parametrize("case", PATTERNS.values(), ids=PATTERNS)
    def test_patterns_and_a_non_power_of_two_chip(self, case):
        assert_parity(*case)

    @pytest.mark.parametrize("case", WIDTHS.values(), ids=WIDTHS)
    def test_narrow_and_wide_masks(self, case):
        assert_parity(*case)

    @pytest.mark.parametrize("case", EVC.values(), ids=EVC)
    def test_evc(self, case):
        assert_parity(*case)

    @pytest.mark.parametrize("cls", [Network, VectorNetwork])
    def test_evc_needs_two_vcs_at_construction(self, cls):
        """EVC's window rule refuses one VC when the tables compile, on
        either core, before a packet moves."""
        topo, routing = chip(("evc_mesh", 4, 4, 1), None)
        with pytest.raises(ValueError, match="at least 2 VCs"):
            cls(topo, NetworkConfig(num_vcs=1), routing=routing)


class TestMonitoredRun:
    def test_checked_scalar_matches_vectorized(self):
        """A ``check=True`` scalar run (full monitor suite attached) must
        report the same metrics as the vectorized backend: monitors are
        read-only, and the backends are bit-identical underneath them."""
        base = dict(topology="mesh", kx=4, ky=4, concentration=1,
                    routing="xy", scheme=PSEUDO_SB, pattern="uniform",
                    rate=0.25, synth_cycles=400, synth_warmup=80, seed=7)
        checked = run_experiment(ExperimentConfig(backend="scalar", **base),
                                 check=True)
        assert checked.monitor_report["violation_count"] == 0
        vector = run_experiment(
            ExperimentConfig(backend="vectorized", **base), use_cache=False)
        assert _metrics(checked) == _metrics(vector)

    @pytest.mark.parametrize("extra", [
        dict(pattern="uniform", rate=0.1, synth_cycles=400,
             synth_warmup=100),
        dict(benchmark="fma3d", trace_cycles=300, trace_warmup=200)],
        ids=["synthetic", "trace"])
    def test_checked_evc_rows_match(self, extra):
        """EVC's rows with the monitors on, on both cores (the full
        suite on the scalar one, the array sweeps on the vectorized
        one): no violation, equal metrics."""
        base = dict(topology="evc_mesh", kx=8, ky=8, concentration=1,
                    routing="xy", scheme=BASELINE, seed=7, **extra)
        rows = [run_experiment(ExperimentConfig(backend=core, **base),
                               check=True)
                for core in ("scalar", "vectorized")]
        for row, core in zip(rows, ("scalar", "vectorized")):
            assert row.manifest["backend"] == core
            assert row.monitor_report["violation_count"] == 0
        assert _metrics(rows[0]) == _metrics(rows[1])


def _metrics(result):
    """A ``Result``'s metrics, without the config (which names the core)."""
    return {field: getattr(result, field) for field in (
        "avg_latency", "avg_network_latency", "avg_hops", "reusability",
        "buffer_bypass_rate", "packets", "flit_hops", "energy_pj",
        "pc_restored")}
