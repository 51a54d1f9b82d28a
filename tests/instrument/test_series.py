"""Time series: exact windows (incl. fast-forward), exports, heatmap."""

import csv
import json

import pytest

from repro.instrument import CompositeProbe, FlitTracer, TimeSeriesProbe
from repro.network.config import PSEUDO_SB, NetworkConfig
from repro.network.simulator import Network
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic


def run_with_series(window=32, cycles=300, rate=0.15, topology="mesh",
                    capacity=4096, concentration=1):
    series = TimeSeriesProbe(window=window, capacity=capacity)
    tracer = FlitTracer()
    topo = make_topology(topology, 4, 4, concentration)
    config = NetworkConfig(num_vcs=4, buffer_depth=4, pseudo=PSEUDO_SB)
    net = Network(topo, config, seed=5)
    net.bind_probe(CompositeProbe(tracer, series))
    traffic = SyntheticTraffic("uniform", topo.num_terminals, rate, 5,
                               seed=5)
    net.run(cycles, traffic)
    net.drain(max_cycles=200_000)
    series.flush()
    return series, tracer, net


def test_rejects_zero_window():
    with pytest.raises(ValueError):
        TimeSeriesProbe(window=0)


def test_windows_tile_the_run_exactly():
    series, _, net = run_with_series(window=32)
    samples = list(series.samples)
    assert samples[0]["start"] == 0
    for prev, cur in zip(samples, samples[1:]):
        assert cur["start"] == prev["end"]
    # drain() fast-forwards across quiescent stretches; the tiling must
    # survive the cycle jumps and cover the whole run.
    assert samples[-1]["end"] == net.cycle


def test_activity_totals_match_trace_counts():
    series, tracer, _ = run_with_series()
    totals = {key: 0 for key in ("hops", "buffer_writes", "injected",
                                 "ejected")}
    for sample in series.samples:
        for key in totals:
            totals[key] += sum(sample[key])
    assert totals["hops"] == tracer.counts["hop"]
    assert totals["buffer_writes"] == tracer.counts["buffer_write"]
    assert totals["injected"] == tracer.counts["inject"]
    assert totals["ejected"] == tracer.counts["eject"]


def test_ring_buffer_caps_memory():
    series, _, _ = run_with_series(window=8, capacity=5)
    assert len(series.samples) == 5


def test_network_rows_derive_pc_reuse():
    series, _, net = run_with_series(rate=0.3)
    rows = series.network_rows()
    busy = [r for r in rows if r["hops"]]
    assert busy
    for row in busy:
        assert row["pc_reuse"] == row["sa_bypass"] / row["hops"]
    assert any(row["pc_reuse"] > 0 for row in busy)


def test_csv_export(tmp_path):
    series, _, _ = run_with_series()
    path = series.to_csv(str(tmp_path / "series.csv"))
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(series.samples) * 16
    first = rows[0]
    for column in ("start", "end", "router", "occupancy", "hops",
                   "sa_bypass", "pc_reuse", "link_util"):
        assert column in first


def test_json_export(tmp_path):
    series, _, _ = run_with_series()
    path = series.to_json(str(tmp_path / "series.json"))
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["window"] == series.window
    assert doc["num_routers"] == 16
    assert len(doc["samples"]) == len(series.samples)
    assert len(doc["network"]) == len(series.samples)


def test_heatmap_grid(tmp_path):
    series, tracer, _ = run_with_series()
    doc = series.heatmap("hops")
    assert doc["kx"] == 4 and doc["ky"] == 4
    total = sum(sum(row) for row in doc["grid"])
    assert total == tracer.counts["hop"]
    path = series.write_heatmap(str(tmp_path / "heat.json"), "occupancy")
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["metric"] == "occupancy"
    with pytest.raises(ValueError):
        series.heatmap("nonsense")


def test_heatmap_on_cmesh():
    series, _, _ = run_with_series(topology="cmesh", concentration=4)
    doc = series.heatmap("hops")
    assert doc["kx"] == 4 and doc["ky"] == 4
