"""``repro bench``: the post-install self-check that instrumentation is cold.

An installed package ships no test suite, so this runner is how a user
asks "does everything that is off by default really cost nothing, and
does everything that observes really only observe, on *my* install":

* ``overhead_gate`` — a default-built network carries no probe, and
  stats stay bit-identical with every observer the core accepts
  attached (``repro.instrument.overhead``), on the scalar core and, for
  any other backend, on the array core too;
* ``telemetry_cold_check`` — a telemetry-off sweep holds the off emitter
  and writes nothing, and a telemetry-on sweep returns bit-identical
  results (``repro.instrument.overhead``);
* with ``check=True``, the monitored self-check (``repro.monitor``).

Any violation raises the named ``OverheadGateError`` / ``SelfCheckError``.
Nothing here is timed: how fast each core, layer and sweep runs is
measured by ``perf/run.py`` against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import platform
import sys
import time

from ..instrument import git_sha, overhead_gate, run_manifest, write_manifest
from ..instrument.overhead import telemetry_cold_check
from ..network.backend import REFUSALS

#: Length of each gate workload; the checks are structural and
#: bit-identity assertions, so a few hundred cycles exercise them fully.
DEFAULT_CYCLES = 400


def run_bench(cycles: int = DEFAULT_CYCLES, backend: str = "scalar",
              check: bool = False, out_path: str | None = None,
              show: bool = True) -> dict:
    """Run every cold/identity gate; return (and optionally write) the report.

    ``backend`` other than ``"scalar"`` adds the array-core gate (needs
    numpy and a C compiler). Without them the gate's line says why; an
    explicit ``vectorized`` then raises the refusal, while ``auto`` —
    which would land on the scalar core — records it under
    ``vectorized_overhead: {"refused": ...}`` and goes on.
    ``check=True`` adds the monitored self-check and, when
    ``out_path`` is given, writes its metrics document next to the report
    (``*.metrics.json``). Nothing touches the filesystem without
    ``out_path``; with one, the report gets a provenance manifest sidecar.
    """
    start_wall = time.perf_counter()
    gate_report = overhead_gate(cycles=cycles, show=show)
    if backend != "scalar":
        try:
            gate_report["vectorized_overhead"] = overhead_gate(
                cycles=cycles, show=show, backend="vectorized")
        except REFUSALS as refusal:
            if backend != "auto":
                raise
            gate_report["vectorized_overhead"] = {"refused": str(refusal)}
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
            "backend": backend,
        },
        "overhead_gate": gate_report,
    }
    if check:
        from ..monitor import metrics_path, self_check, write_metrics
        check_report = self_check(cycles=cycles, show=show)
        report["self_check"] = {
            "runs": len(check_report["runs"]),
            "violations": sum(run["violation_count"]
                              for run in check_report["runs"]),
            "stats_identical": all(run["stats_identical"]
                                   for run in check_report["runs"]),
        }
        if out_path is not None:
            path = write_metrics(metrics_path(out_path), check_report)
            if show:
                print(f"wrote {path}")
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        manifest = run_manifest(
            {"driver": "bench", "cycles": cycles, "backend": backend,
             "check": check},
            wall_s=time.perf_counter() - start_wall)
        write_manifest(manifest, out_path)
        if show:
            print(f"wrote {out_path}")
    return report
