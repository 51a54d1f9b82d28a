"""Pinned fingerprints of EVC points, the comparison baseline of Fig. 14.

Each point is simulated on the default (scalar) core and reduced to its
whole ``NetworkStats`` fingerprint (every counter, the exact latency
histogram, the termination counts) plus the final cycle; the SHA-256 of
that record is pinned. A synthetic 8x8 point loads the express and the
normal VC classes; the two trace points are Fig. 14's EVC rows (mesh 8x8
and the concentrated 4x4x4 chip, fma3d replayed behind the MSHR gate) at
reduced scale. Any change to how EVC routes, partitions its VCs or is
stepped moves a digest.
"""

import hashlib
import json

import pytest

from repro.harness.experiment import ExperimentConfig, build_network
from repro.harness.traces import get_trace
from repro.network.config import BASELINE
from repro.traffic.synthetic import SyntheticTraffic
from repro.traffic.trace import TraceReplayTraffic


def _evc(**fields) -> ExperimentConfig:
    return ExperimentConfig(topology="evc_mesh", routing="xy",
                            vc_policy="dynamic", scheme=BASELINE,
                            backend="scalar", **fields)


#: id -> (point, ejected packets, final cycle, SHA-256 of the record).
POINTS = {
    "synthetic-mesh8x8": (
        _evc(kx=8, ky=8, concentration=1, pattern="uniform", rate=0.2,
             synth_cycles=600, synth_warmup=150, seed=3),
        1597, 647,
        "930b5fd79211527da7347a9051b757b4345236b183784804d63a90abfc10a1f2"),
    "fig14-trace-mesh8x8": (
        _evc(kx=8, ky=8, concentration=1, benchmark="fma3d",
             trace_cycles=400, trace_warmup=200),
        1438, 482,
        "d6eee2845e600d9b70eb1f639f902b70b67386725661e64bcc1522a0153e8bf7"),
    "fig14-trace-cmesh4x4": (
        _evc(kx=4, ky=4, concentration=4, benchmark="fma3d",
             trace_cycles=400, trace_warmup=200),
        1438, 423,
        "4d309f19778bf446b0ca12cfc56f23211772e2a22f7cdc3678353cdd012dda71"),
}


def fingerprint(config: ExperimentConfig):
    """The network ``config`` runs on, driven as ``run_experiment``
    drives it, and its record: the stats fingerprint plus final cycle."""
    net = build_network(config)
    if config.benchmark is not None:
        replay = TraceReplayTraffic(get_trace(
            config.benchmark, cycles=config.trace_cycles,
            warmup=config.trace_warmup, seed=config.seed))
        net.run(replay.horizon, replay)
    else:
        net.stats.warmup_cycles = config.synth_warmup
        net.run(config.synth_cycles, SyntheticTraffic(
            config.pattern, net.topology.num_terminals, config.rate,
            config.packet_size, seed=config.seed))
    net.drain(max_cycles=500_000)
    net.check_invariants()
    record = net.stats.fingerprint()
    record["latency_histogram"] = sorted(record["latency_histogram"].items())
    record["pc_terminations"] = sorted(
        (reason.name, count)
        for reason, count in record["pc_terminations"].items())
    record["final_cycle"] = net.cycle
    return net, record


def digest(record: dict) -> str:
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("point,ejected,final_cycle,sha", POINTS.values(),
                         ids=POINTS)
def test_fingerprint_is_pinned(point, ejected, final_cycle, sha):
    net, record = fingerprint(point)
    assert net.routing.name == "evc_xy"
    assert (record["ejected_packets"], record["final_cycle"]) == (
        ejected, final_cycle)
    assert digest(record) == sha
