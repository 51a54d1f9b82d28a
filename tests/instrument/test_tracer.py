"""Flit tracer: JSONL schema, Chrome trace export, packet correlation."""

import json

from repro.instrument import FlitTracer
from repro.network.config import PSEUDO_SB, NetworkConfig
from repro.network.simulator import Network
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic


def traced_run(cycles=300, rate=0.15, max_events=None, kx=4):
    tracer = FlitTracer(max_events=max_events)
    topo = make_topology("mesh", kx, kx, 1)
    config = NetworkConfig(num_vcs=4, buffer_depth=4, pseudo=PSEUDO_SB)
    net = Network(topo, config, seed=5)
    net.bind_probe(tracer)
    traffic = SyntheticTraffic("uniform", topo.num_terminals, rate, 5,
                               seed=5)
    net.run(cycles, traffic)
    net.drain(max_cycles=200_000)
    return tracer, net


def test_event_kinds_and_schema():
    tracer, _ = traced_run()
    kinds = {e["ev"] for e in tracer.events}
    assert {"buffer_write", "buffer_read", "va_grant", "hop", "link",
            "inject", "eject", "pc_establish", "pc_terminate"} <= kinds
    for record in tracer.events:
        assert "cycle" in record
        if record["ev"] == "hop":
            assert record["via"] in ("sa", "pc", "buf")
            assert {"router", "port", "vc", "out_port", "pid",
                    "fidx"} <= set(record)


def test_packet_correlated_across_hops():
    tracer, _ = traced_run()
    ejected = next(e for e in tracer.events if e["ev"] == "eject")
    pid = ejected["pid"]
    hops = [e for e in tracer.events
            if e["ev"] == "hop" and e["pid"] == pid]
    assert hops, "ejected packet left no hop events"
    routers = [h["router"] for h in hops]
    assert len(set(routers)) >= 1
    cycles = [h["cycle"] for h in hops]
    assert cycles == sorted(cycles)


def test_terminations_match_aggregate_counters():
    tracer, net = traced_run(rate=0.3)
    aggregate = {reason.value: count
                 for reason, count in net.stats.pc_terminations.items()
                 if count}
    assert tracer.termination_counts == aggregate
    assert sum(aggregate.values()) > 0


def test_jsonl_round_trip(tmp_path):
    tracer, _ = traced_run()
    path = tracer.to_jsonl(str(tmp_path / "events.jsonl"))
    with open(path, encoding="utf-8") as fh:
        parsed = [json.loads(line) for line in fh]
    assert parsed == tracer.events


def test_chrome_trace_loads_and_correlates(tmp_path):
    tracer, net = traced_run(rate=0.3, kx=8)
    path = tracer.to_chrome_trace(str(tmp_path / "run.trace.json"))
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)  # must be valid JSON (Perfetto-loadable)
    events = doc["traceEvents"]
    slices = [e for e in events if e.get("ph") == "X"]
    assert slices and all(e["name"].startswith("hop:") for e in slices)
    # Flow events stitch one packet's hops: exactly one start per packet.
    flows = [e for e in events if e.get("cat") == "packet"]
    starts = [e["id"] for e in flows if e["ph"] == "s"]
    assert len(starts) == len(set(starts))
    assert any(e["ph"] == "t" for e in flows)
    # PC lifecycle instants with termination reasons, reconciled against
    # the aggregate counters.
    terms = [e for e in events if e["name"].startswith("pc_terminate:")]
    by_reason: dict[str, int] = {}
    for e in terms:
        reason = e["name"].split(":", 1)[1]
        assert e["args"]["reason"] == reason
        by_reason[reason] = by_reason.get(reason, 0) + 1
    aggregate = {reason.value: count
                 for reason, count in net.stats.pc_terminations.items()
                 if count}
    assert by_reason == aggregate
    assert any(e["name"] == "pc_establish" for e in events)
    assert any(e["ph"] == "M" for e in events)  # process names


def test_max_events_caps_storage_not_counts():
    capped, _ = traced_run(max_events=100)
    full, _ = traced_run(max_events=None)
    assert len(capped.events) == 100
    assert capped.dropped == sum(full.counts.values()) - 100
    assert capped.counts == full.counts
