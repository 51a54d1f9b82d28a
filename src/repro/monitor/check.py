"""Monitored self-check: the acceptance run behind ``--check`` in CI.

Runs the gate workload of ``repro.instrument.overhead`` (8×8 mesh,
Pseudo+S+B) at a low and a saturation injection rate, twice each: once
bare and once with the full monitor suite attached. Passing means

* every monitor stayed violation-free at both loads, and
* the monitored run's ``NetworkStats`` fingerprint is bit-identical to
  the bare run's — monitors observe, never perturb.

Returns a JSON-ready report (one entry per rate) with each registry's
metrics document, so CI can archive the self-check alongside the bench.
"""

from __future__ import annotations

from ..instrument.overhead import OverheadGateError, _gate_workload
from .registry import default_registry


class SelfCheckError(AssertionError):
    """The monitored self-check failed (violation or perturbed stats)."""


def self_check(cycles: int = 600, rates: tuple = (0.02, 0.30),
               seed: int = 7, show: bool = False) -> dict:
    """Run the monitored acceptance workloads; raise on any divergence."""
    runs = []
    for rate in rates:
        bare = _gate_workload("scalar", cycles, rate, seed)
        registry = default_registry(strict=True)
        try:
            net = _gate_workload("scalar", cycles, rate, seed,
                                 registry.probe())
        except Exception as err:
            raise SelfCheckError(
                f"monitored run at rate {rate:g} failed: {err}") from err
        doc = registry.finish(net)
        if doc["violation_count"]:
            first = doc["violations"][0]
            raise SelfCheckError(
                f"rate {rate:g}: {doc['violation_count']} violations, "
                f"first: {first}")
        monitored_fp = net.stats.fingerprint()
        bare_fp = bare.stats.fingerprint()
        if monitored_fp != bare_fp:
            diff = {k: (v, monitored_fp[k]) for k, v in bare_fp.items()
                    if monitored_fp[k] != v}
            raise OverheadGateError(
                f"rate {rate:g}: stats diverged with monitors "
                f"attached: {diff}")
        runs.append({"rate": rate, "cycles": cycles,
                     "stats_identical": True, **doc})
        if show:
            run = doc["run"]
            print(f"self-check rate={rate:g}: {run['ejected_packets']} "
                  f"packets, reuse={run['reusability']:.3f}, "
                  f"0 violations, stats bit-identical")
    return {"schema": "repro.self-check/1", "seed": seed, "runs": runs}
