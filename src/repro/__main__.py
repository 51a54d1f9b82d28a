"""Command-line interface: ``python -m repro <command>``.

Commands (full reference with every flag: ``docs/CLI.md``):

* ``fig1 .. fig14, table1, table2`` — regenerate one paper figure/table;
* ``all`` — regenerate everything (reduced scale);
* ``run`` — one ad-hoc experiment, e.g.::

      python -m repro run --topology mesh --kx 8 --ky 8 \\
          --routing xy --va static --scheme pseudo_sb \\
          --pattern uniform --rate 0.1

* ``sweep`` — sensitivity sweeps (``--kind vcs|buffers|load``);
* ``bench`` — the post-install gate: probes, monitors and telemetry
  are cold when off and bit-identical when on, at a low and a
  saturation load (speed is measured by ``perf/run.py``, not here);
* ``compare`` — diff two metrics/bench JSON documents into a regression
  report (exit 1 when any metric regressed past its threshold), e.g.::

      python -m repro compare old.metrics.json new.metrics.json

* ``trace`` — run one experiment with the full instrumentation stack and
  write the flit-lifecycle trace (JSONL + Chrome ``trace_event`` JSON,
  loadable in Perfetto), the windowed per-router time series (CSV +
  JSON + spatial heatmap) and the run manifest;
* ``store`` — inspect / maintain the content-addressed result store
  (``ls``, ``verify``, ``gc``, ``export``);
* ``top`` — follow a sweep's telemetry stream (or checkpoint journal)
  live: points/s, tier mix, per-worker utilization, retries, ETA;
  ``--once`` snapshots, ``--trace-out``/``--report-out`` export the
  Perfetto trace and the sweep-report.

``run`` and ``sweep`` accept ``--check`` to attach the full
online-monitor suite (``repro.monitor``): invariant violations abort the
run, and a ``*.metrics.json`` document is written next to ``--out`` for
later ``compare`` calls. ``bench`` always attaches it, and with
``--out`` writes its runs' documents the same way.

Figure and sweep commands accept ``--workers N`` to fan the underlying
simulations out over N worker processes; results are bit-identical to a
serial run. Figure, sweep and run commands accept ``--out PATH`` to also
persist their rows as JSON with a provenance manifest sidecar.

Resilient execution (``DESIGN.md`` §11): ``--store DIR`` (default from
``$REPRO_STORE``) backs the run cache with the content-addressed result
store, so re-running figures or sweeps over a warm store is near-free;
``sweep --journal PATH`` checkpoints every completed point and
``--resume`` continues an interrupted sweep bit-identically;
``--retries``/``--timeout`` govern worker retries and pool-stall
recovery; ``sweep --telemetry PATH`` records the span/event stream
``repro top`` follows (see ``repro.telemetry``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from typing import TYPE_CHECKING

from .evc import EvcConfigError
from .harness.bench import DEFAULT_CYCLES, run_bench
from .harness.experiment import (ExperimentConfig, default_store,
                                 run_experiment, set_default_store)
from .harness.figures import ALL_FIGURES
from .harness.report import print_table, write_results
from .harness.sweep import sweep_buffer_depth, sweep_load, sweep_vcs
from .instrument.provenance import run_manifest, write_manifest
from .network.backend import BACKENDS, set_default_backend
from .network.config import (ALL_SCHEMES, BASELINE, PSEUDO, PSEUDO_B,
                             PSEUDO_S, PSEUDO_SB)
from .routing import RoutingDeadlockError
from .store.cli import add_store_parser, cmd_store
from .topology import UnsupportedRoutingError

if TYPE_CHECKING:
    from .instrument.series import TimeSeriesProbe
    from .instrument.tracer import FlitTracer

SCHEMES = {"baseline": BASELINE, "pseudo": PSEUDO, "pseudo_s": PSEUDO_S,
           "pseudo_b": PSEUDO_B, "pseudo_sb": PSEUDO_SB}


def _figure_kwargs(fn, workers: int | None) -> dict:
    """Pass --workers through to figures that can parallelize."""
    if workers is None:
        return {}
    if "max_workers" in inspect.signature(fn).parameters:
        return {"max_workers": workers}
    return {}


def _persist(out: str | None, command: dict, rows) -> None:
    """Write rows + provenance manifest when the command asked for --out."""
    if out is None:
        return
    write_results(out, rows, run_manifest(command))
    print(f"wrote {out}")


def _activate_store(args) -> None:
    """Install the result store requested by --store / $REPRO_STORE."""
    store_dir = getattr(args, "store", None)
    if store_dir:
        from .store import ResultStore
        set_default_store(ResultStore(store_dir))
    if getattr(args, "resume", False) and not getattr(args, "journal", None):
        if default_store() is None:
            raise SystemExit(
                "error: --resume without --journal needs --store (or "
                "$REPRO_STORE) to replay completed points from")


def _store_summary() -> None:
    """Print one line of cache-hit accounting when a store is active."""
    store = default_store()
    if store is None:
        return
    stats = store.stats_dict()
    print(f"store: {stats['hits']} hits, {stats['misses']} misses, "
          f"{stats['puts']} new results ({stats['dir']})")


def _cmd_figure(args) -> int:
    fn = ALL_FIGURES[args.command]
    rows = fn(**_figure_kwargs(fn, args.workers))
    _store_summary()
    _persist(args.out, {"command": args.command, "workers": args.workers},
             rows)
    return 0


def _cmd_all(args) -> int:
    for name in ALL_FIGURES:
        fn = ALL_FIGURES[name]
        fn(**_figure_kwargs(fn, args.workers))
    _store_summary()
    return 0


def _experiment_config(args) -> ExperimentConfig:
    common = dict(topology=args.topology, kx=args.kx, ky=args.ky,
                  concentration=args.concentration, chiplets=args.chiplets,
                  chiplet_link_latency=args.chiplet_link_latency,
                  routing=args.routing, vc_policy=args.va, seed=args.seed)
    if args.benchmark:
        return ExperimentConfig(benchmark=args.benchmark,
                                trace_cycles=args.cycles, **common)
    return ExperimentConfig(pattern=args.pattern, rate=args.rate,
                            synth_cycles=args.cycles,
                            synth_warmup=args.cycles // 4, **common)


def _cmd_run(args) -> int:
    cfg = _experiment_config(args)
    tracing = args.trace is not None or args.series is not None
    if tracing and args.scheme == "all":
        print("error: --trace/--series need a single --scheme",
              file=sys.stderr)
        return 2
    rows = []
    out_rows = []
    checked = []
    # Every point up front: a scheme the topology refuses fails before
    # any point runs.
    configs = [cfg.with_scheme(scheme) for scheme in (
        ALL_SCHEMES if args.scheme == "all" else [SCHEMES[args.scheme]])]
    for point in configs:
        scheme = point.scheme
        probe = tracer = series = None
        if tracing:
            from .instrument import (CompositeProbe, FlitTracer,
                                     TimeSeriesProbe)
            probes = []
            if args.trace is not None:
                tracer = FlitTracer(max_events=args.max_events)
                probes.append(tracer)
            if args.series is not None:
                series = TimeSeriesProbe(window=args.window)
                probes.append(series)
            probe = (probes[0] if len(probes) == 1
                     else CompositeProbe(*probes))
        res = run_experiment(point, probe=probe,
                             check=args.check,
                             check_stride=args.check_stride)
        if tracer is not None and args.trace is not None:
            _write_trace(tracer, args.trace, res.manifest)
        if series is not None and args.series is not None:
            series.flush()
            _write_series(series, args.series)
        if res.monitor_report is not None:
            checked.append((scheme.label, res.monitor_report))
        rows.append((scheme.label, res.avg_latency, res.reusability,
                     res.buffer_bypass_rate,
                     res.energy_pj / max(1, res.flit_hops)))
        out_rows.append({"scheme": scheme.label,
                         "avg_latency": res.avg_latency,
                         "reusability": res.reusability,
                         "buffer_bypass_rate": res.buffer_bypass_rate,
                         "energy_pj": res.energy_pj,
                         "manifest": res.manifest})
    print_table(cfg.label,
                ["scheme", "latency", "reuse", "buf bypass", "pJ/hop"], rows)
    _store_summary()
    if checked:
        _report_checked(checked, args.out)
    _persist(args.out, {"command": "run", "label": cfg.label}, out_rows)
    return 0


def _report_checked(checked, out: str | None) -> None:
    """Print the monitor verdict; write the metrics-set next to --out."""
    from .monitor import metrics_path, metrics_set, write_metrics
    for label, doc in checked:
        monitors = doc["monitors"]
        watchdog = monitors.get("watchdog", {})
        print(f"monitors [{label}]: {doc['violation_count']} violations, "
              f"{len(monitors)} monitors, "
              f"max stall {watchdog.get('max_stall_cycles', 0)} cycles "
              f"(backend {doc.get('backend', 'scalar')})")
        profile = doc.get("phase_profile")
        if profile:
            fractions = profile["fractions"]
            mix = "  ".join(f"{key} {fractions[key]:.0%}"
                            for key in sorted(fractions))
            print(f"phase profile [{label}]: {mix} over "
                  f"{profile['stepped_cycles']} stepped cycles")
    if out is not None:
        doc = metrics_set(checked)
        store = default_store()
        if store is not None:
            # Checked runs bypass the cache, so these counters record the
            # bypass (zero hits) rather than cache temperature.
            doc["store"] = store.stats_dict()
        path = write_metrics(metrics_path(out), doc)
        print(f"wrote {path}")


def _write_trace(tracer: FlitTracer, prefix: str,
                 manifest: dict | None) -> None:
    print(f"wrote {tracer.to_jsonl(prefix + '.jsonl')}")
    print(f"wrote {tracer.to_chrome_trace(prefix + '.trace.json')}")
    if manifest is not None:
        print(f"wrote {write_manifest(manifest, prefix + '.jsonl')}")


def _write_series(series: TimeSeriesProbe, prefix: str) -> None:
    print(f"wrote {series.to_csv(prefix + '.series.csv')}")
    print(f"wrote {series.to_json(prefix + '.series.json')}")
    try:
        print(f"wrote {series.write_heatmap(prefix + '.heatmap.json')}")
    except ValueError:
        pass  # non-grid topology: no spatial layout to plot


def _cmd_trace(args) -> int:
    from .instrument import CompositeProbe, FlitTracer, TimeSeriesProbe
    cfg = _experiment_config(args).with_scheme(SCHEMES[args.scheme])
    tracer = FlitTracer(max_events=args.max_events)
    series = TimeSeriesProbe(window=args.window)
    res = run_experiment(cfg, probe=CompositeProbe(tracer, series))
    series.flush()
    _write_trace(tracer, args.out, res.manifest)
    _write_series(series, args.out)
    dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
    print(f"{sum(tracer.counts.values())} events over "
          f"{len(series.samples)} windows{dropped}; "
          f"avg latency {res.avg_latency:.2f}")
    return 0


def _cmd_sweep(args) -> int:
    sweeps = {"vcs": (sweep_vcs, "num_vcs"),
              "buffers": (sweep_buffer_depth, "buffer_depth"),
              "load": (sweep_load, "load")}
    fn, key = sweeps[args.kind]
    overrides = {}
    if args.cycles is not None:
        overrides["synth_cycles"] = args.cycles
        overrides["synth_warmup"] = args.cycles // 4
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    rows = fn(max_workers=args.workers, check=args.check,
              check_stride=args.check_stride,
              journal=args.journal, resume=args.resume,
              retries=args.retries, backoff_base=args.backoff,
              timeout=args.timeout, telemetry=args.telemetry,
              **overrides)
    if args.telemetry is not None:
        from .telemetry import report_path
        print(f"telemetry: {args.telemetry} "
              f"(report {report_path(args.telemetry)})")
    if args.check:
        print(f"monitors: all {2 * len(rows)} sweep points "
              f"violation-free")
    print_table(f"sensitivity sweep: {args.kind}",
                [key, "baseline", "Pseudo+S+B", "reduction", "reuse"],
                [(r[key], r["baseline_latency"], r["latency"],
                  r["reduction"], r["reusability"]) for r in rows])
    _store_summary()
    _persist(args.out, {"command": "sweep", "kind": args.kind}, rows)
    return 0


def _cmd_top(args) -> int:
    from .telemetry import run_top
    try:
        return run_top(args.stream, once=args.once,
                       interval=args.interval, trace_out=args.trace_out,
                       report_out=args.report_out)
    except KeyboardInterrupt:
        print()  # leave the last snapshot on its own line
        return 130


def _cmd_compare(args) -> int:
    from .monitor import compare_files, render_report
    overrides = {}
    for spec in args.threshold or ():
        pattern, _, value = spec.partition("=")
        if not value:
            print(f"error: --threshold expects PATTERN=VALUE, got {spec!r}",
                  file=sys.stderr)
            return 2
        overrides[pattern] = float(value)
    report = compare_files(args.old, args.new, overrides or None)
    print(render_report(report, show_ok=args.show_ok))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 1 if report["regressed"] else 0


def _add_store_arg(p) -> None:
    """--store DIR: back the run cache with the on-disk result store."""
    p.add_argument("--store", default=os.environ.get("REPRO_STORE"),
                   metavar="DIR",
                   help="content-addressed result store directory backing "
                        "the run cache (default: $REPRO_STORE)")


def _add_backend_arg(p) -> None:
    """--backend NAME: pick the network core for every simulation."""
    p.add_argument("--backend", default=None, choices=list(BACKENDS),
                   help="network core: scalar (default), vectorized (the "
                        "array core: one compiled C cycle over flat "
                        "arrays), or auto (the array core wherever it "
                        "accepts the point, compatible sweep points "
                        "grouped into multi-lane runs; scalar where it "
                        "refuses, the refusal in the manifest); all "
                        "bit-identical stats; the array core needs numpy "
                        "and a C compiler")


class _ExactParser(argparse.ArgumentParser):
    """``ArgumentParser`` that never accepts a flag by unique prefix.

    ``add_subparsers`` builds subcommands with the class of their parent,
    so every (nested) subparser inherits this: a mistyped or removed flag
    exits 2 naming itself instead of silently binding to a longer one.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs, allow_abbrev=False)


def build_parser() -> argparse.ArgumentParser:
    """Construct the full ``repro`` argument parser.

    Exposed as a function (rather than built inline in ``main``) so the
    documentation drift test can walk every subcommand and option string
    and assert ``docs/CLI.md`` covers them.
    """
    parser = _ExactParser(
        prog="repro", description="Pseudo-Circuit reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ALL_FIGURES:
        fig_p = sub.add_parser(name, help=f"regenerate {name}")
        fig_p.add_argument("--workers", type=int, default=None)
        fig_p.add_argument("--out", default=None,
                           help="also write rows + manifest to this JSON")
        _add_store_arg(fig_p)
        _add_backend_arg(fig_p)
    all_p = sub.add_parser("all", help="regenerate every figure and table")
    all_p.add_argument("--workers", type=int, default=None)
    _add_store_arg(all_p)
    _add_backend_arg(all_p)

    def add_experiment_args(p, scheme_default: str,
                            scheme_choices: list[str]) -> None:
        p.add_argument("--topology", default="mesh",
                       choices=["mesh", "cmesh", "fbfly", "mecs",
                                "chiplet", "kite", "evc_mesh"])
        p.add_argument("--kx", type=int, default=8)
        p.add_argument("--ky", type=int, default=8)
        p.add_argument("--concentration", type=int, default=1)
        p.add_argument("--chiplets", type=int, default=4,
                       help="chiplet topology: number of compute dies "
                            "(default 4; --kx/--ky size each die)")
        p.add_argument("--chiplet-link-latency", type=int, default=4,
                       help="chiplet topology: wire latency of each "
                            "die<->IO boundary link (default 4)")
        p.add_argument("--routing", default="xy",
                       choices=["xy", "yx", "o1turn", "weighted"])
        p.add_argument("--va", default="dynamic",
                       choices=["dynamic", "static"])
        p.add_argument("--scheme", default=scheme_default,
                       choices=scheme_choices)
        p.add_argument("--pattern", default="uniform")
        p.add_argument("--rate", type=float, default=0.1)
        p.add_argument("--benchmark", default=None)
        p.add_argument("--cycles", type=int, default=1500)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--window", type=int, default=64,
                       help="time-series window in cycles (default 64)")
        p.add_argument("--max-events", type=int, default=None,
                       help="cap stored trace events (drops past the cap)")
        _add_backend_arg(p)

    run_p = sub.add_parser("run", help="run one experiment")
    add_experiment_args(run_p, "all", ["all"] + sorted(SCHEMES))
    run_p.add_argument("--trace", default=None, metavar="PREFIX",
                       help="write PREFIX.jsonl + PREFIX.trace.json "
                            "(needs a single --scheme)")
    run_p.add_argument("--series", default=None, metavar="PREFIX",
                       help="write PREFIX.series.{csv,json} "
                            "(needs a single --scheme)")
    run_p.add_argument("--out", default=None,
                       help="also write rows + manifest to this JSON")
    run_p.add_argument("--check", action="store_true",
                       help="attach the online invariant monitors (scalar "
                            "core: the full monitor suite; array core: "
                            "whole-array invariant sweeps); write a "
                            "*.metrics.json doc next to --out")
    run_p.add_argument("--check-stride", type=int, default=1, metavar="N",
                       help="with --check on the array core: "
                            "sweep the array invariants every N cycles "
                            "instead of every cycle (default 1)")
    _add_store_arg(run_p)

    trace_p = sub.add_parser(
        "trace", help="run one experiment fully instrumented; write trace, "
                      "time series, heatmap and manifest")
    add_experiment_args(trace_p, "pseudo_sb", sorted(SCHEMES))
    trace_p.add_argument("--out", default="repro_trace", metavar="PREFIX",
                         help="output prefix (default repro_trace)")

    sweep_p = sub.add_parser("sweep", help="sensitivity sweeps")
    sweep_p.add_argument("--kind", default="load",
                         choices=["vcs", "buffers", "load"])
    sweep_p.add_argument("--workers", type=int, default=None)
    sweep_p.add_argument("--out", default=None,
                         help="also write rows + manifest to this JSON")
    sweep_p.add_argument("--check", action="store_true",
                         help="attach the online invariant monitors to "
                              "every sweep point (array sweeps on array-"
                              "core points; checked points batch "
                              "normally)")
    sweep_p.add_argument("--check-stride", type=int, default=1,
                         metavar="N",
                         help="with --check on array-core points: "
                              "sweep the array invariants every N cycles "
                              "(default 1)")
    sweep_p.add_argument("--cycles", type=int, default=None,
                         help="cycles per sweep point (default 1000; "
                              "warmup is cycles/4)")
    _add_store_arg(sweep_p)
    _add_backend_arg(sweep_p)
    sweep_p.add_argument("--journal", default=None, metavar="PATH",
                         help="checkpoint every completed point to this "
                              "journal file as it lands")
    sweep_p.add_argument("--resume", action="store_true",
                         help="skip points already in --journal (or the "
                              "--store) from an interrupted run; the "
                              "merged result is bit-identical to an "
                              "uninterrupted sweep")
    sweep_p.add_argument("--retries", type=int, default=0,
                         help="extra attempts per failed/timed-out point "
                              "(default 0)")
    sweep_p.add_argument("--backoff", type=float, default=0.5,
                         help="base seconds of the deterministic "
                              "exponential retry backoff (default 0.5)")
    sweep_p.add_argument("--timeout", type=float, default=None,
                         help="seconds without any completed chunk before "
                              "the worker pool is abandoned and the sweep "
                              "degrades to serial execution")
    sweep_p.add_argument("--batch-size", type=int, default=None,
                         metavar="N",
                         help="max sweep points grouped into one "
                              "multi-lane batched run (default 16; 1 "
                              "disables batching; only --backend auto "
                              "points group)")
    sweep_p.add_argument("--telemetry", default=None, metavar="PATH",
                         help="append the span/event telemetry stream "
                              "(one closed span per point: tier, "
                              "backend, retries, walls) to this JSONL "
                              "file; a repro.sweep-report/1 summary is "
                              "written next to it when the sweep ends; "
                              "follow live with 'repro top PATH'")

    bench_p = sub.add_parser(
        "bench", help="self-check that instrumentation is cold when off "
                      "and bit-identical when on")
    bench_p.add_argument("--cycles", type=int, default=DEFAULT_CYCLES,
                         help="cycles per gate workload (default "
                              f"{DEFAULT_CYCLES})")
    bench_p.add_argument("--out", default=None, metavar="PATH",
                         help="write the report (+ manifest and "
                              "*.metrics.json sidecars) to this JSON; "
                              "nothing is written without it")
    _add_backend_arg(bench_p)
    _add_store_arg(bench_p)

    compare_p = sub.add_parser(
        "compare", help="regression report between two metrics/bench JSON "
                        "documents (exit 1 on regression)")
    compare_p.add_argument("old", help="baseline document (JSON)")
    compare_p.add_argument("new", help="candidate document (JSON)")
    compare_p.add_argument("--out", default=None,
                           help="also write the report JSON here")
    compare_p.add_argument("--threshold", action="append", default=None,
                           metavar="PATTERN=VALUE",
                           help="override the tolerance for metrics "
                                "matching fnmatch PATTERN (repeatable)")
    compare_p.add_argument("--show-ok", action="store_true",
                           help="note explicitly when nothing moved")

    top_p = sub.add_parser(
        "top", help="live progress of a running (or finished) sweep from "
                    "its telemetry stream or checkpoint journal")
    top_p.add_argument("stream",
                       help="telemetry stream (sweep --telemetry) or "
                            "checkpoint journal (sweep --journal) to "
                            "follow; the kind is sniffed from the file")
    top_p.add_argument("--once", action="store_true",
                       help="print a single snapshot and exit (works "
                            "mid-sweep and on a dead sweep's leftover "
                            "stream)")
    top_p.add_argument("--interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="seconds between refreshes in follow mode "
                            "(default 2.0)")
    top_p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="also write a Chrome trace_event JSON of "
                            "everything read (workers as tracks; open "
                            "in Perfetto); telemetry streams only")
    top_p.add_argument("--report-out", default=None, metavar="PATH",
                       help="also write the repro.sweep-report/1 summary "
                            "built from everything read; telemetry "
                            "streams only")

    add_store_parser(sub)
    return parser


def main(argv=None) -> int:
    """Parse one CLI invocation and dispatch it; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "store":
        return cmd_store(args)
    if args.command == "top":
        return _cmd_top(args)
    flit_trace = args.command == "trace" or getattr(args, "trace", None)
    if flit_trace and args.backend == "vectorized":
        print("error: a flit trace records per-flit events, which only the "
              "scalar core emits; use --backend scalar (--series works on "
              "every core)", file=sys.stderr)
        return 2
    _activate_store(args)
    # Install the backend before any ExperimentConfig is constructed:
    # configs freeze the process default into their cache/store keys.
    if getattr(args, "backend", None):
        set_default_backend(args.backend)
    if args.command in ALL_FIGURES:
        return _cmd_figure(args)
    if args.command == "all":
        return _cmd_all(args)
    if args.command == "bench":
        run_bench(cycles=args.cycles, backend=args.backend or "scalar",
                  out_path=args.out)
        return 0
    if args.command == "compare":
        return _cmd_compare(args)
    command = {"run": _cmd_run, "trace": _cmd_trace}.get(args.command,
                                                         _cmd_sweep)
    try:
        return command(args)
    except (EvcConfigError, UnsupportedRoutingError,
            RoutingDeadlockError) as err:
        parser.error(str(err))  # a configuration the point refuses


if __name__ == "__main__":
    sys.exit(main())
