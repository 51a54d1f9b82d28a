"""Per-figure reproduction entry points.

Each ``figN`` function regenerates the rows/series of one paper figure or
table and returns them as plain data (list of dicts); with ``show=True`` it
also prints an aligned table. Scale parameters (benchmark list, trace
length, load points) default to values that finish quickly; pass larger
ones for a full evaluation (see ``examples/full_evaluation.py``).

Each experiment figure states its points once, as a dict from a row key
to an ``ExperimentConfig``, answers them with one ``run_experiments``
call (``max_workers`` fans the simulations out over worker processes)
and builds its rows from the results by key. Results are bit-identical
to a serial run: parallelism only changes where the simulations
execute, never their seeds or the order of the rows.

The scalar core, the CMP and the energy model load in the figures that
use them, not with this module. Runs are memoized process-wide, so
figures that share configurations (Figs. 9, 10 and 11 use the same
grid) pay for each simulation once.
With a result store installed (``--store`` / ``$REPRO_STORE`` /
``experiment.set_default_store``), the memo is additionally backed by
the content-addressed on-disk store: a second ``figure all`` over a
warm store recomputes nothing — every point is a verified store hit
(``DESIGN.md`` §11) — and an interrupted figure run resumes for free.
"""

from __future__ import annotations

from ..network.config import (ALL_SCHEMES, BASELINE, PC_SCHEMES, PSEUDO_SB,
                              NetworkConfig, PseudoCircuitConfig)
from .experiment import ExperimentConfig
from .parallel import run_experiments
from .report import print_table, reduction
from .traces import extract

#: Benchmarks used by the reduced (bench-suite) figure runs.
QUICK_BENCHMARKS = ("fma3d", "equake", "blackscholes", "specjbb", "fft",
                    "radix")
#: The best baseline configuration (paper Section VI.A).
BEST_BASELINE = ("o1turn", "dynamic")
#: The configuration used for the pseudo-circuit bars of Fig. 8 (the
#: best-performing combination in our Fig. 9 grid).
PSEUDO_CONFIG = ("xy", "dynamic")

ROUTINGS = ("xy", "yx", "o1turn")
VA_POLICIES = ("static", "dynamic")


def _trace_config(benchmark: str, routing: str, va: str,
                  scheme: PseudoCircuitConfig, trace_cycles: int, seed: int,
                  topology: str = "cmesh", kx: int = 4, ky: int = 4,
                  concentration: int = 4) -> ExperimentConfig:
    return ExperimentConfig(
        topology=topology, kx=kx, ky=ky, concentration=concentration,
        routing=routing, vc_policy=va, scheme=scheme,
        benchmark=benchmark, trace_cycles=trace_cycles,
        trace_warmup=max(200, trace_cycles // 5), seed=seed)


def _results(points: dict, max_workers: int | None) -> dict:
    """Every point's ``Result``, keyed like ``points``, from one
    ``run_experiments`` call over them in their order."""
    return dict(zip(points, run_experiments(points.values(),
                                            max_workers=max_workers)))


# ---------------------------------------------------------------------------
# Fig. 1 — communication temporal locality
# ---------------------------------------------------------------------------

def fig1(benchmarks=QUICK_BENCHMARKS, cycles: int = 2000, seed: int = 1,
         show: bool = True) -> list[dict]:
    """End-to-end vs crossbar-connection temporal locality per benchmark."""
    rows = []
    for bench in benchmarks:
        run = extract(bench, cycles=cycles, seed=seed)
        rows.append({"benchmark": bench,
                     "e2e_locality": run.e2e_locality,
                     "xbar_locality": run.xbar_locality})
    avg = {"benchmark": "average",
           "e2e_locality": sum(r["e2e_locality"] for r in rows) / len(rows),
           "xbar_locality": sum(r["xbar_locality"] for r in rows) / len(rows)}
    rows.append(avg)
    if show:
        print_table("Fig. 1: communication temporal locality",
                    ["benchmark", "end-to-end", "crossbar connection"],
                    [(r["benchmark"], r["e2e_locality"], r["xbar_locality"])
                     for r in rows])
    return rows


# ---------------------------------------------------------------------------
# Fig. 6 — pipeline stages / per-hop router delay
# ---------------------------------------------------------------------------

def fig6(show: bool = True) -> list[dict]:
    """Measured per-hop latency of a warmed flow under each pipeline.

    Sends repeated single-flit packets along two east-west paths of
    different length on an otherwise idle mesh; the per-hop delay is the
    latency difference divided by the hop difference. Expected: 4 cycles
    baseline (BW | VA+SA | ST | LT), 3 with pseudo-circuits, 2 with buffer
    bypassing on top.
    """
    rows = []
    for scheme, expected in ((BASELINE, 4), (ALL_SCHEMES[1], 3),
                             (PSEUDO_SB, 2)):
        near = _warm_flow_latency(scheme, hops=2)
        far = _warm_flow_latency(scheme, hops=6)
        per_hop = (far - near) / 4
        rows.append({"scheme": scheme.label, "per_hop_cycles": per_hop,
                     "expected": expected})
    if show:
        print_table("Fig. 6: per-hop router delay (head flits, warm circuit)",
                    ["scheme", "measured cycles/hop", "paper pipeline"],
                    [(r["scheme"], r["per_hop_cycles"], r["expected"])
                     for r in rows])
    return rows


def _warm_flow_latency(scheme: PseudoCircuitConfig, hops: int) -> int:
    from ..network.flit import Packet
    from ..network.simulator import Network
    from ..topology.mesh import Mesh
    topo = Mesh(8, 2)
    net = Network(topo, NetworkConfig(pseudo=scheme), routing="xy",
                  vc_policy="static", seed=1)
    latency = 0
    for _ in range(3):  # first packets warm the circuits, last is measured
        packet = Packet(0, hops, 1, net.cycle)
        net.inject(packet)
        net.drain()
        latency = packet.network_latency
    return latency


# ---------------------------------------------------------------------------
# Fig. 8 — overall performance and reusability
# ---------------------------------------------------------------------------

def fig8(benchmarks=QUICK_BENCHMARKS, trace_cycles: int = 2000,
         seed: int = 1, show: bool = True,
         max_workers: int | None = None) -> list[dict]:
    """Latency reduction (vs the best baseline) and reusability for the
    four pseudo-circuit schemes, per benchmark plus average."""
    # Every baseline first: the pool chunks the points in this order.
    points = {(bench, BASELINE): _trace_config(
        bench, *BEST_BASELINE, BASELINE, trace_cycles, seed)
        for bench in benchmarks}
    points.update({(bench, scheme): _trace_config(
        bench, *PSEUDO_CONFIG, scheme, trace_cycles, seed)
        for bench in benchmarks for scheme in PC_SCHEMES})
    res = _results(points, max_workers)
    rows = []
    for bench in benchmarks:
        base = res[bench, BASELINE].avg_latency
        row = {"benchmark": bench, "baseline_latency": base}
        for scheme in PC_SCHEMES:
            pseudo = res[bench, scheme]
            row[f"reduction_{scheme.label}"] = reduction(
                base, pseudo.avg_latency)
            row[f"reuse_{scheme.label}"] = pseudo.reusability
        rows.append(row)
    avg = {"benchmark": "average", "baseline_latency": float("nan")}
    for scheme in PC_SCHEMES:
        for kind in ("reduction", "reuse"):
            key = f"{kind}_{scheme.label}"
            avg[key] = sum(r[key] for r in rows) / len(rows)
    rows.append(avg)
    if show:
        labels = [s.label for s in PC_SCHEMES]
        print_table("Fig. 8(a): network latency reduction vs best baseline",
                    ["benchmark"] + labels,
                    [[r["benchmark"]]
                     + [r[f"reduction_{l}"] for l in labels] for r in rows])
        print_table("Fig. 8(b): pseudo-circuit reusability",
                    ["benchmark"] + labels,
                    [[r["benchmark"]]
                     + [r[f"reuse_{l}"] for l in labels] for r in rows])
    return rows


# ---------------------------------------------------------------------------
# Figs. 9/10 — routing x VA grid: latency reduction and reusability
# ---------------------------------------------------------------------------

def _grid(benchmarks, trace_cycles: int, seed: int,
          max_workers: int | None = None) -> list[dict]:
    """Latency reduction here is measured against the *same* routing/VA
    baseline, isolating the pseudo-circuit effect per combination."""
    points = {(bench, routing, va, scheme): _trace_config(
        bench, routing, va, scheme, trace_cycles, seed)
        for bench in benchmarks for routing in ROUTINGS
        for va in VA_POLICIES for scheme in (BASELINE, *PC_SCHEMES)}
    res = _results(points, max_workers)
    rows = []
    for (bench, routing, va, scheme), pseudo in res.items():
        if scheme == BASELINE:
            continue
        base = res[bench, routing, va, BASELINE].avg_latency
        rows.append({
            "benchmark": bench, "routing": routing, "va": va,
            "scheme": scheme.label,
            "latency": pseudo.avg_latency,
            "baseline_latency": base,
            "reduction": reduction(base, pseudo.avg_latency),
            "reusability": pseudo.reusability,
        })
    return rows


def fig9(benchmarks=("fma3d", "specjbb", "radix"), trace_cycles: int = 2000,
         seed: int = 1, show: bool = True,
         max_workers: int | None = None) -> list[dict]:
    """Latency reduction for every routing x VA x scheme combination."""
    rows = _grid(benchmarks, trace_cycles, seed, max_workers)
    if show:
        print_table(
            "Fig. 9: latency reduction grid (vs same-configuration baseline)",
            ["benchmark", "routing", "va", "scheme", "reduction"],
            [(r["benchmark"], r["routing"], r["va"], r["scheme"],
              r["reduction"]) for r in rows])
    return rows


def fig10(benchmarks=("fma3d", "specjbb", "radix"), trace_cycles: int = 2000,
          seed: int = 1, show: bool = True,
          max_workers: int | None = None) -> list[dict]:
    """Reusability for every routing x VA x scheme combination."""
    rows = _grid(benchmarks, trace_cycles, seed, max_workers)
    if show:
        print_table(
            "Fig. 10: pseudo-circuit reusability grid",
            ["benchmark", "routing", "va", "scheme", "reusability"],
            [(r["benchmark"], r["routing"], r["va"], r["scheme"],
              r["reusability"]) for r in rows])
    return rows


# ---------------------------------------------------------------------------
# Fig. 11 — router energy consumption
# ---------------------------------------------------------------------------

def fig11(benchmarks=("fma3d", "specjbb", "radix"), trace_cycles: int = 2000,
          seed: int = 1, show: bool = True,
          max_workers: int | None = None) -> list[dict]:
    """Router energy (normalized to the same-configuration baseline) for XY
    and YX with static VA, per scheme."""
    points = {(routing, bench, scheme): _trace_config(
        bench, routing, "static", scheme, trace_cycles, seed)
        for routing in ("xy", "yx") for bench in benchmarks
        for scheme in (BASELINE, *PC_SCHEMES)}
    res = _results(points, max_workers)

    def per_flit(result) -> float:
        return result.energy_pj / max(1, result.flit_hops)

    rows = []
    for (routing, bench, scheme), pseudo in res.items():
        if scheme == BASELINE:
            continue
        rows.append({
            "routing": routing, "benchmark": bench,
            "scheme": scheme.label,
            "normalized_energy": (per_flit(pseudo)
                                  / per_flit(res[routing, bench, BASELINE])),
        })
    if show:
        print_table(
            "Fig. 11: normalized router energy per flit-hop (static VA)",
            ["routing", "benchmark", "scheme", "normalized energy"],
            [(r["routing"], r["benchmark"], r["scheme"],
              r["normalized_energy"]) for r in rows])
    return rows


# ---------------------------------------------------------------------------
# Fig. 12 — synthetic workloads: load-latency curves
# ---------------------------------------------------------------------------

def fig12(patterns=("uniform", "bitcomp", "transpose"),
          loads=(0.05, 0.10, 0.15, 0.25), schemes=ALL_SCHEMES,
          cycles: int = 1000, seed: int = 1, show: bool = True,
          max_workers: int | None = None) -> list[dict]:
    """Latency vs offered load on an 8x8 mesh, XY routing + static VA."""
    points = {(pattern, load, scheme): ExperimentConfig(
        topology="mesh", kx=8, ky=8, concentration=1,
        routing="xy", vc_policy="static", scheme=scheme,
        pattern=pattern, rate=load, packet_size=5,
        synth_cycles=cycles, synth_warmup=cycles // 4, seed=seed)
        for pattern in patterns for load in loads for scheme in schemes}
    rows = [{"pattern": pattern, "load": load, "scheme": scheme.label,
             "latency": r.avg_latency, "reusability": r.reusability}
            for (pattern, load, scheme), r
            in _results(points, max_workers).items()]
    if show:
        print_table("Fig. 12: synthetic workloads (8x8 mesh, XY + static VA)",
                    ["pattern", "load", "scheme", "latency", "reuse"],
                    [(r["pattern"], r["load"], r["scheme"], r["latency"],
                      r["reusability"]) for r in rows])
    return rows


# ---------------------------------------------------------------------------
# Fig. 13 — impact on various topologies
# ---------------------------------------------------------------------------

TOPOLOGY_POINTS = (
    ("mesh", 8, 8, 1),
    ("cmesh", 4, 4, 4),
    ("mecs", 4, 4, 4),
    ("fbfly", 4, 4, 4),
)


def fig13(benchmark: str = "fma3d", trace_cycles: int = 2000, seed: int = 1,
          show: bool = True, max_workers: int | None = None) -> list[dict]:
    """Latency of every scheme on mesh/cmesh/MECS/FBFLY, normalized to the
    baseline mesh (DOR XY + static VA, as in the paper)."""
    points = {(topo, scheme): _trace_config(
        benchmark, "xy", "static", scheme, trace_cycles, seed,
        topology=topo, kx=kx, ky=ky, concentration=conc)
        for topo, kx, ky, conc in TOPOLOGY_POINTS for scheme in ALL_SCHEMES}
    res = _results(points, max_workers)
    mesh_base = res["mesh", BASELINE].avg_latency
    rows = [{"topology": topo, "scheme": scheme.label,
             "latency": r.avg_latency,
             "normalized": r.avg_latency / mesh_base,
             "reusability": r.reusability}
            for (topo, scheme), r in res.items()]
    if show:
        print_table(
            f"Fig. 13: topology impact on {benchmark} "
            "(normalized to baseline mesh)",
            ["topology", "scheme", "latency", "normalized", "reuse"],
            [(r["topology"], r["scheme"], r["latency"], r["normalized"],
              r["reusability"]) for r in rows])
    return rows


# ---------------------------------------------------------------------------
# Fig. 14 — comparison with express virtual channels
# ---------------------------------------------------------------------------

FIG14_POINTS = (("mesh", "mesh", 8, 8, 1), ("cmesh", "cmesh", 4, 4, 4))


def fig14(benchmark: str = "fma3d", trace_cycles: int = 2000, seed: int = 1,
          show: bool = True, max_workers: int | None = None) -> list[dict]:
    """Baseline vs EVC vs Pseudo+S+B on a mesh and a concentrated mesh."""
    points = {(label, name): _trace_config(
        benchmark, "xy", "dynamic", scheme, trace_cycles, seed,
        topology=topo, kx=kx, ky=ky, concentration=conc)
        for label, topo_name, kx, ky, conc in FIG14_POINTS
        for name, topo, scheme in (("Baseline", topo_name, BASELINE),
                                   ("EVC", "evc_mesh", BASELINE),
                                   ("Pseudo+S+B", topo_name, PSEUDO_SB))}
    res = _results(points, max_workers)
    rows = [{"topology": label, "scheme": name, "latency": r.avg_latency,
             "normalized": r.avg_latency / res[label, "Baseline"].avg_latency}
            for (label, name), r in res.items()]
    if show:
        print_table(
            f"Fig. 14: EVC comparison on {benchmark} "
            "(normalized per topology)",
            ["topology", "scheme", "latency", "normalized"],
            [(r["topology"], r["scheme"], r["latency"], r["normalized"])
             for r in rows])
    return rows


# ---------------------------------------------------------------------------
# Tables I and II
# ---------------------------------------------------------------------------

def table1(show: bool = True) -> list[tuple[str, str]]:
    from ..cmp.config import CmpConfig
    rows = CmpConfig().as_table()
    if show:
        print_table("Table I: CMP configuration parameters",
                    ["parameter", "value"], rows)
    return rows


def table2(show: bool = True) -> list[dict]:
    from ..energy import DEFAULT_ENERGY_MODEL
    model = DEFAULT_ENERGY_MODEL
    rows = [{"component": name, "pj_per_hop": pj, "share": share}
            for name, (pj, share) in model.component_breakdown().items()]
    if show:
        print_table("Table II: router energy per flit hop",
                    ["component", "pJ", "share"],
                    [(r["component"], r["pj_per_hop"], r["share"])
                     for r in rows])
    return rows


# ---------------------------------------------------------------------------
# Chiplet boundary-latency study (beyond the paper: ROADMAP item 2)
# ---------------------------------------------------------------------------

CHIPLET_LINK_LATENCIES = (1, 2, 4, 8)


def chiplet(link_latencies=CHIPLET_LINK_LATENCIES, chiplets: int = 4,
            kx: int = 2, ky: int = 2, rate: float = 0.05,
            cycles: int = 1500, seed: int = 1, show: bool = True,
            max_workers: int | None = None) -> list[dict]:
    """Pseudo-circuit recovery vs chiplet boundary-link latency.

    The experiment the paper could not run: on a ``chiplets`` x
    (``kx`` x ``ky``) chiplet system with weight-ordered routing and
    static VA, sweep the die<->IO boundary wire latency and measure how
    much of the added cross-die cost the pseudo-circuit scheme recovers.
    ``recovered`` is the baseline-minus-pseudo latency gap at each
    point; ``recovered_pct`` normalizes it by the baseline latency.
    """
    points = {(latency, scheme): ExperimentConfig(
        topology="chiplet", kx=kx, ky=ky, concentration=1,
        chiplets=chiplets, chiplet_link_latency=latency,
        routing="weighted", vc_policy="static", scheme=scheme,
        pattern="uniform", rate=rate, packet_size=5,
        synth_cycles=cycles, synth_warmup=cycles // 4, seed=seed)
        for latency in link_latencies for scheme in (BASELINE, PSEUDO_SB)}
    res = _results(points, max_workers)
    rows = []
    for (latency, scheme), r in res.items():
        base = res[latency, BASELINE].avg_latency
        recovered = base - res[latency, PSEUDO_SB].avg_latency
        rows.append({
            "link_latency": latency, "scheme": scheme.label,
            "latency": r.avg_latency,
            "network_latency": r.avg_network_latency,
            "reusability": r.reusability,
            "recovered": recovered,
            "recovered_pct": 100.0 * recovered / base,
        })
    if show:
        print_table(
            f"Chiplet boundary-latency study ({chiplets}x({kx}x{ky}) dies, "
            "weighted routing + static VA, uniform traffic)",
            ["link_lat", "scheme", "latency", "reuse", "recovered",
             "recovered%"],
            [(r["link_latency"], r["scheme"], r["latency"],
              r["reusability"], r["recovered"], r["recovered_pct"])
             for r in rows])
    return rows


ALL_FIGURES = {
    "fig1": fig1, "fig6": fig6, "fig8": fig8, "fig9": fig9,
    "fig10": fig10, "fig11": fig11, "fig12": fig12, "fig13": fig13,
    "fig14": fig14, "table1": table1, "table2": table2,
    "chiplet": chiplet,
}
