"""``repro bench``: the post-install check that instrumentation is cold.

An installed package ships no test suite, so this runner is how a user
asks "does everything that is off by default really cost nothing, and
does everything that observes really only observe, on *my* install":

* ``overhead_gate`` — a default-built network carries no probe, and
  stats stay bit-identical, with no violation found, when what a
  checked run attaches and every probe the core accepts observe it
  (``repro.instrument.overhead``), at a low and a saturation load, on
  the scalar core and on the array core wherever this process can build
  it;
* ``telemetry_cold_check`` — a telemetry-off sweep holds the off emitter
  and writes nothing, and a telemetry-on sweep returns bit-identical
  results (``repro.instrument.overhead``).

Any failure raises the named ``OverheadGateError``.
Nothing here is timed: how fast each core, layer and sweep runs is
measured by ``perf/run.py`` against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import platform
import sys
import time

from ..instrument.provenance import git_sha, run_manifest, write_manifest
from ..network.backend import REFUSALS

#: Length of each gate workload; the checks are structural and
#: bit-identity assertions, so a few hundred cycles exercise them fully.
DEFAULT_CYCLES = 400


def run_bench(cycles: int = DEFAULT_CYCLES, out_path: str | None = None,
              show: bool = True) -> dict:
    """Run every cold/identity gate; return (and optionally write) the report.

    Every core this process can build is gated: the scalar core always,
    then the array core (needs numpy and a C compiler). Where the array
    core is refused, the gate's line says why and the report records it
    under ``vectorized_overhead: {"refused": ...}``. Nothing
    touches the filesystem without ``out_path``; with one, the report
    gets a provenance manifest sidecar and the gate's observed runs
    their metrics documents, one ``repro.metrics-set/1`` beside it
    (``*.metrics.json``).
    """
    # Imported here: importing this module (the CLI does) loads neither
    # the gate nor the monitors, which load the scalar core.
    from ..instrument.overhead import overhead_gate, telemetry_cold_check
    from ..monitor import metrics_path, metrics_set, write_metrics
    start_wall = time.perf_counter()
    gate_report = overhead_gate(cycles=cycles, show=show)
    gates = [("scalar", gate_report)]
    try:
        vec = overhead_gate(cycles=cycles, show=show, backend="vectorized")
        gates.append(("vectorized", vec))
    except REFUSALS as refusal:
        vec = {"refused": str(refusal)}
    gate_report["vectorized_overhead"] = vec
    # The monitor documents go to their own file, not into the report.
    docs = metrics_set([(f"{core} rate {run['rate']:g}", run.pop("metrics"))
                        for core, gate in gates for run in gate["runs"]])
    gate_report["telemetry"] = tel_gate = telemetry_cold_check()
    if show:
        print(f"telemetry gate: off-by-default ok, {tel_gate['points']} "
              f"points bit-identical with telemetry on "
              f"({tel_gate['stream_records']} stream records)")
    report = {
        "meta": {
            "generated_unix": int(time.time()),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "git_sha": git_sha(),
            "cycles": cycles,
        },
        "overhead_gate": gate_report,
    }
    if out_path is not None:
        path = write_metrics(metrics_path(out_path), docs)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        manifest = run_manifest(
            {"driver": "bench", "cycles": cycles},
            wall_s=time.perf_counter() - start_wall)
        write_manifest(manifest, out_path)
        if show:
            print(f"wrote {path}")
            print(f"wrote {out_path}")
    return report
