"""End-to-end + per-layer benchmark of the reproduction (see README.md).

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in child interpreters (``child.py``) and prints, as
the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` every end-to-end metric
of ``BENCHMARK.json``, measured with tracing off; with ``--trace 1``
every per-layer metric, from a separate traced run that also writes
``perf/out/trace.json``. Without ``--workload`` all five run one after
another. ``--aa`` runs the untraced benchmark twice and compares the
two against the bounds; ``--record-golden`` re-records the result
digests of ``golden.json``; ``--smoke`` shrinks everything for
``test_smoke.py``; ``--out FILE`` also writes the full report as JSON.

The benchmark measures; it claims no gain and compares against no
earlier file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from refkernel import NOMINAL_S

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
GOLDEN = os.path.join(PERF, "golden.json")
DEFAULT_SEED = 7

#: Fresh interpreters that set a workload up per run; ``setup_s`` is
#: the median of their times to READY.
SETUP_RUNS = 5

#: The children's environment. The program calls no BLAS routine, yet
#: importing numpy spins up an OpenBLAS pool as wide as the machine, and
#: whether its threads land on separate CPUs made every import take
#: either 0.10 s or 0.17 s, in phases: held to one thread it is 0.10 s.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")

#: The paper's headline (Fig. 8: Pseudo+S+B cuts average network
#: latency by about 16 % on the CMP traces) — the only reference there
#: is. No hardware measurement exists, so no other error is given.
PAPER_FIG8_REDUCTION_PCT = 16.0


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, bounds, workloads."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_child(name: str, seed: int, seconds: float, mode: str,
              scale: str):
    """One child interpreter: ``(seconds to READY, RESULT doc or None)``.

    A child that fails takes the whole run down with it, so a broken
    workload never turns into a printed result.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(PERF, "child.py"), name, str(seed),
         str(seconds), mode, scale],
        stdout=subprocess.PIPE, text=True, env=CHILD_ENV)
    ready = doc = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                doc = json.loads(line[len("RESULT "):])
    finally:
        if proc.poll() is None and sys.exc_info()[0] is not None:
            proc.kill()  # interrupted: do not leave the child behind
        proc.wait()
    if proc.returncode != 0 or ready is None:
        sys.exit(f"perf: workload {name} ({mode}) failed, "
                 f"exit code {proc.returncode}")
    return ready, doc


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_golden() -> dict:
    """Recorded result digests, ``{"workload:seed": sha256}``."""
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def untraced(name: str, seed: int, seconds: float, scale: str) -> dict:
    """The end-to-end metrics of one workload, tracing off.

    Times are reported at reference host speed (see ``refkernel.py``):
    scaled by the median of the kernel timings taken between the passes.
    """
    readies = [run_child(name, seed, 0, "setup", scale)[0]
               for _ in range(0 if scale == "smoke" else SETUP_RUNS - 1)]
    ready, doc = run_child(name, seed, seconds, "measure", scale)
    readies.append(ready)
    problems = doc["problems"]
    failed = doc["failed"]
    golden = load_golden().get(f"{name}:{seed}") if scale == "full" \
        else None
    if golden is not None and golden != doc["digest"]:
        problems.append("results differ from golden.json")
        failed = doc["attempted"]
    slowdown = statistics.median(doc["ref_s"]) / NOMINAL_S
    setups = [ready / slowdown for ready in readies]
    rates = [doc["points"] / wall * slowdown for wall in doc["pass_wall_s"]]
    return {
        "workload": name, "attempted": doc["attempted"], "failed": failed,
        "problems": problems, "golden_checked": golden is not None,
        "calibration_source": doc["calibration_source"],
        "host_slowdown": slowdown,
        "raw": {"setup_s": statistics.median(readies),
                "points_per_s": statistics.median(rates) / slowdown},
        "samples": {"setup_s": setups, "points_per_s": rates},
        "metrics": {"setup_s": statistics.median(setups),
                    "points_per_s": statistics.median(rates),
                    "peak_rss_mb": doc["peak_rss_mb"], **doc["sim"]}}


def traced(name: str, seed: int, seconds: float, scale: str) -> dict:
    """The per-layer metrics, from the workload's separate traced run."""
    _, doc = run_child(name, seed, seconds, "trace", scale)
    return {"workload": name, "attempted": doc["attempted"],
            "failed": doc["failed"], "problems": doc["problems"],
            "probe_rounds": doc["probe_rounds"], "spans": doc["spans"],
            "metrics": doc["metrics"]}


def report_lines(report: dict, defs: list) -> list[str]:
    """The human-readable table of one workload's report."""
    name = report["workload"]
    lines = [f"== {name}: {report['failed']} failed of "
             f"{report['attempted']} points attempted "
             f"(failed_share {report['failed'] / report['attempted']:g})"]
    for problem in report["problems"]:
        lines.append(f"   PROBLEM: {problem}")
    samples = report.get("samples", {})
    for spec in defs:
        metric = spec["name"]
        text = (f"   {metric:<52} {report['metrics'][metric]:>14.6g} "
                f"{spec['unit']:<12} {spec['better']} is better")
        if "bound" in spec:
            text += f", bound {spec['bound']:.0%}"
        if len(samples.get(metric, ())) > 1:
            q1, _, q3 = quartiles(samples[metric])
            text += (f"  [q1 {q1:.6g}, q3 {q3:.6g}, "
                     f"n={len(samples[metric])}]")
        lines.append(text)
    if "sim_latency_vs_base_pct" in report["metrics"]:
        cut = 100 - report["metrics"]["sim_latency_vs_base_pct"]
        note = f"   sim_latency_reduction_pct = {cut:.3g} % here"
        if name == "fig8_traces":
            note += (f"; the paper's Fig. 8 reports about "
                     f"{PAPER_FIG8_REDUCTION_PCT:g} %, a gap of "
                     f"{PAPER_FIG8_REDUCTION_PCT - cut:.3g} points "
                     f"(EXPERIMENTS.md). There is no hardware reference, "
                     f"so no other error figure is given")
        lines.append(note)
    if "raw" in report:
        lines.append(
            f"   times are at reference host speed: the host ran "
            f"{report['host_slowdown']:.2f}x slower than nominal; as "
            f"measured, setup_s {report['raw']['setup_s']:.4g} and "
            f"points_per_s {report['raw']['points_per_s']:.4g}; "
            f"auto calibration: {report['calibration_source']}; "
            + ("checked against golden.json" if report["golden_checked"]
               else "golden.json has no digest for this seed and scale"))
    if "probe_rounds" in report:
        lines.append(f"   {report['spans']} spans in perf/out/trace.json; "
                     f"layer probes: median of {report['probe_rounds']} "
                     f"round(s)")
    return lines


def result_line(report: dict, defs: list) -> str:
    """The driver's last line: exactly the four agreed keys."""
    metrics = {}
    for spec in defs:
        value = report["metrics"][spec["name"]]
        if not math.isfinite(value):
            sys.exit(f"perf: metric {spec['name']} is not finite")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return json.dumps({
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"], "failed": report["failed"],
        "metrics": metrics})


def benchmark(args, spec, names) -> list[dict]:
    """Run the chosen workloads once; print tables and result lines."""
    scale = "smoke" if args.smoke else "full"
    seconds = 0 if args.smoke else args.seconds
    defs = spec["per_layer"] if args.trace else spec["end_to_end"]
    reports = []
    for name in names:
        run = traced if args.trace else untraced
        report = run(name, args.seed, seconds, scale)
        reports.append(report)
        print("\n".join(report_lines(report, defs)))
        print(result_line(report, defs), flush=True)
    return reports


def aa(args, spec, names) -> int:
    """Two untraced runs of the same code, held to the benchmark's own
    bounds; returns the number of workload x metric pairs that miss."""
    first = {r["workload"]: r for r in benchmark(args, spec, names)}
    second = {r["workload"]: r for r in benchmark(args, spec, names)}
    misses = 0
    print(f"{'workload':<18} {'metric':<24} {'first':>12} {'second':>12} "
          f"{'|d|/bound':>9}  verdict")
    for name in names:
        a, b = first[name], second[name]
        if (a["failed"], a["problems"]) != (b["failed"], b["problems"]):
            misses += 1
            print(f"{name:<18} failed/problems differ between the runs")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            x, y = a["metrics"][key], b["metrics"][key]
            if key.startswith("sim_"):  # simulated: must repeat exactly
                verdict = "PASS" if x == y else "MISS"
                ratio = 0.0 if x == y else math.inf
            else:
                ratio = abs(y - x) / x / bound
                spreads = [(q3 - q1) / q2 for q1, q2, q3 in
                           (quartiles(r["samples"][key]) for r in (a, b)
                            if key in r["samples"])]
                if ratio <= 1:
                    verdict = "PASS"
                elif max(spreads, default=0) > bound:
                    verdict = "UNRESOLVED"  # spread wider than the bound
                else:
                    verdict = "MISS"
            misses += verdict != "PASS"
            print(f"{name:<18} {key:<24} {x:>12.6g} {y:>12.6g} "
                  f"{ratio:>9.2f}  {verdict}")
    return misses


def record_golden(args, names) -> None:
    """Re-record ``golden.json`` for ``--seed`` (one untimed pass each).

    A change meant to alter simulated results needs a benchmark issue
    of its own, landed first, to re-record these.
    """
    digests = load_golden()
    for name in names:
        _, doc = run_child(name, args.seed, 0, "digest", "full")
        if doc["problems"]:
            sys.exit(f"perf: {name} misbehaved: {doc['problems']}")
        digests[f"{name}:{args.seed}"] = doc["digest"]
        print(f"{name}:{args.seed} {doc['digest']}")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"schema": "perf.golden/1", "digests": digests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


def stamp() -> dict:
    """Where and when a report was measured."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True).stdout.strip() or None
    except OSError:
        git_sha = None
    return {"git_sha": git_sha,
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
            "unix_time": int(time.time())}


def main(argv=None) -> int:
    """Parse the command line and run the requested mode."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--out", help="also write the report as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload shrunk, one timed pass")
    parser.add_argument("--aa", action="store_true",
                        help="run twice; compare against the bounds")
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record golden.json for --seed")
    args = parser.parse_args(argv)
    if args.workload:
        names = [args.workload]
    started = stamp() if args.out else None
    if args.record_golden:
        record_golden(args, names)
        return 0
    if args.aa:
        misses = aa(args, spec, names)
        print(f"{misses} workload x metric pair(s) outside their bound")
        return 1 if misses else 0
    reports = benchmark(args, spec, names)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": "perf.report/1", "stamp": started,
                       "seed": args.seed, "trace": args.trace,
                       "smoke": args.smoke, "reports": reports}, fh,
                      indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
