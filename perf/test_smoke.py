"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Runs ``perf/run.py --smoke`` (every workload shrunk, one timed pass)
untraced and traced, and checks the output contract: every metric
``BENCHMARK.json`` lists is printed exactly once per workload, finite,
with its unit, and no point failed. Not part of the tier-1 suite
(``testpaths`` stays ``tests``).
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPAN_KEYS = {"id", "name", "layer", "stage", "workload", "point", "parent",
             "start_ns", "end_ns", "self_ns"}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def smoke(trace: int) -> str:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--smoke", "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def check(stdout: str, defs: list) -> None:
    lines = stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(SPEC["workloads"])
    for doc in results:
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] is True
        assert doc["failed"] == 0 and doc["attempted"] >= 1
        assert list(doc["metrics"]) == [d["name"] for d in defs]
        for spec in defs:
            metric = doc["metrics"][spec["name"]]
            assert math.isfinite(metric["value"]), spec["name"]
            assert metric["unit"] == spec["unit"], spec["name"]
    for spec in defs:  # the table names each metric once per workload
        rows = [line for line in lines
                if line.split()[:1] == [spec["name"]]]
        assert len(rows) == len(results), spec["name"]
        assert all(spec["unit"] in row.split() for row in rows)


def test_end_to_end_metrics():
    check(smoke(0), SPEC["end_to_end"])


def test_per_layer_metrics_and_trace_file():
    check(smoke(1), SPEC["per_layer"])
    with open(os.path.join(ROOT, "perf", "out", "trace.json"),
              encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["spans"]
    for span in trace["spans"]:
        assert set(span) == SPAN_KEYS
        assert span["end_ns"] >= span["start_ns"]
