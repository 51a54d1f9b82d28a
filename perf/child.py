"""One workload in its own interpreter (started by ``run.py``).

``python perf/child.py WORKLOAD SEED SECONDS MODE SCALE`` sets the
workload up, prints ``READY`` (the parent stops its set-up clock on
that line) and then, by ``MODE``:

* ``setup``   exits — one more sample of ``setup_s``;
* ``measure`` runs an untimed warm-up pass, then timed passes for
  ``SECONDS`` (tracing off) and prints ``RESULT {json}``;
* ``digest``  runs the warm-up pass alone (``--record-golden``);
* ``trace``   runs the staged points and the layer probes, writes
  ``perf/out/trace.json`` and prints ``RESULT {json}``.

Temp stores and journals live under ``perf/out/`` and are removed on
exit, whatever way the run ends.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time

from refkernel import reference_kernel

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
OUT = os.path.join(PERF, "out")


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path; fail by name."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    # Pool workers the harness starts must import the same tree.
    os.environ["PYTHONPATH"] = src
    try:
        import numpy  # noqa: F401  (the vectorized cores need it)
    except ImportError:
        sys.exit("perf: numpy is missing; sat_points, lowload_sweep and "
                 "the vectorized probes cannot run without it")
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perf: cannot import the program from {src}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perf: 'repro' resolved to {repro.__file__}, "
                 f"not to this checkout's {src}")


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF,
                               resource.RUSAGE_CHILDREN))
    return peak_kib / 1024


def measure(wl, seconds: float, min_passes: int) -> dict:
    """Warm-up pass, then timed passes; every pass checked against it."""
    from workloads import pass_digest, point_digest
    reference = wl.run_pass()
    problems = wl.end_pass() + wl.backend_problems(reference)
    expected = [None if r is None else point_digest(r) for r in reference]
    walls = []
    refs = []  # host-speed kernel timings taken between the passes
    last_ref = -math.inf
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while len(walls) < min_passes or time.perf_counter() < deadline:
        if time.perf_counter() - last_ref > 1.0:
            refs.append(reference_kernel())
            last_ref = time.perf_counter()
        start = time.perf_counter()
        results = wl.run_pass()
        walls.append(time.perf_counter() - start)
        problems += wl.end_pass()
        attempted += len(results)
        failed += sum(1 for result, digest in zip(results, expected)
                      if result is None or point_digest(result) != digest)
    from repro.network.backend import calibration
    refs.append(reference_kernel())
    return {"pass_wall_s": walls, "ref_s": refs, "points": len(reference),
            "attempted": attempted, "failed": failed, "problems": problems,
            "digest": pass_digest(d or "missing" for d in expected),
            "sim": wl.sim_metrics(reference), "peak_rss_mb": peak_rss_mb(),
            "calibration_source": calibration()["source"]}


def traced(wl, seconds: float, scale: str, tmp: str) -> dict:
    """Staged points, then layer probes; spans written out at the end."""
    import probes
    import staged
    from spans import Tracer
    tracer = Tracer(wl.name)
    doc = staged.run(wl, tracer)
    layer = probes.run(wl.seed, seconds, scale, tmp)
    tracer.write(os.path.join(OUT, "trace.json"))
    doc["metrics"].update(layer["metrics"])
    doc["attempted"] += layer["attempted"]
    doc["failed"] += layer["failed"]
    doc["probe_rounds"] = layer["samples"]
    doc["spans"] = len(tracer.spans)
    return doc


def main(argv) -> None:
    """Set up, report READY, then run the requested mode."""
    name, seed, seconds, mode, scale = argv
    import_program()
    from workloads import WORKLOADS
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        wl = WORKLOADS[name](int(seed), scale, tmp)
        print("READY", flush=True)
        if mode == "measure":
            doc = measure(wl, float(seconds), 1 if scale == "smoke" else 3)
        elif mode == "digest":
            doc = measure(wl, 0, 0)  # the warm-up pass alone
        elif mode == "trace":
            doc = traced(wl, float(seconds), scale, tmp)
        else:
            return
        print("RESULT " + json.dumps(doc), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
