"""Sensitivity sweeps (ablations over the design parameters).

The paper fixes 4 VCs x 4-flit buffers (Section V); these sweeps quantify
how the pseudo-circuit win depends on those choices and on load — the
ablation experiments a reviewer would ask for:

* ``sweep_vcs`` — more VCs dilute per-VC locality under dynamic VA but give
  static VA more flows to separate;
* ``sweep_buffer_depth`` — deeper buffers lengthen the stretch a circuit
  can stream and delay credit terminations;
* ``sweep_load`` — reuse decays as contention rises (the paper's Section
  VIII observation that pseudo-circuits help little at saturation).

Every sweep point gets its own seed derived from the sweep seed (see
``parallel.derive_seed``), and all points of a sweep are dispatched through
``parallel.run_experiments``: simulations run across worker processes, and
the ordered merge keeps the returned rows bit-identical to a serial run.

The scheduler's fault-tolerance knobs pass straight through: ``journal=``
checkpoints every completed point, ``resume=True`` replays an interrupted
sweep's checkpoint file, ``retries``/``timeout`` govern worker
retries and pool-stall recovery (``DESIGN.md`` §11), and ``telemetry=``
records the span/event stream documented in ``repro.telemetry``.
"""

from __future__ import annotations

import inspect

from ..network.config import BASELINE, PSEUDO_SB
from .experiment import ExperimentConfig
from .parallel import derive_seed, run_experiments
from .report import reduction


def _synthetic(**overrides) -> ExperimentConfig:
    defaults = dict(topology="mesh", kx=8, ky=8, concentration=1,
                    routing="xy", vc_policy="static", pattern="uniform",
                    rate=0.10, packet_size=5, synth_cycles=1000,
                    synth_warmup=250, seed=1)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _rows(key: str, points: list, max_workers: int | None,
          check: bool = False, **scheduler) -> list[dict]:
    """Simulate baseline + Pseudo+S+B for every point, merged in order."""
    configs = []
    for _, cfg in points:
        configs.append(cfg.with_scheme(BASELINE))
        configs.append(cfg.with_scheme(PSEUDO_SB))
    results = run_experiments(configs, max_workers=max_workers,
                              check=check, **scheduler)
    rows = []
    for k, (value, _) in enumerate(points):
        base, full = results[2 * k], results[2 * k + 1]
        rows.append({
            key: value,
            "baseline_latency": base.avg_latency,
            "latency": full.avg_latency,
            "reduction": reduction(base.avg_latency, full.avg_latency),
            "reusability": full.reusability,
            "buffer_bypass_rate": full.buffer_bypass_rate,
        })
    return rows


#: ``run_experiments``' own keywords, read off its signature: a sweep
#: names the point list, the worker count and ``check`` itself and
#: passes every other one through.
_SCHEDULER_NAMES = tuple(
    name for name in inspect.signature(run_experiments).parameters
    if name not in ("configs", "max_workers", "check"))


def _scheduler_kwargs(overrides: dict) -> dict:
    """Split the scheduler passthrough keywords out of sweep overrides."""
    return {name: overrides.pop(name) for name in _SCHEDULER_NAMES
            if name in overrides}


def sweep_vcs(vc_counts=(2, 4, 8), max_workers: int | None = None,
              check: bool = False, **overrides) -> list[dict]:
    """Ablate the VC count (baseline vs Pseudo+S+B per point)."""
    scheduler = _scheduler_kwargs(overrides)
    sweep_seed = overrides.pop("seed", 1)
    points = [(n, _synthetic(num_vcs=n,
                             seed=derive_seed(sweep_seed, "vcs", n),
                             **overrides))
              for n in vc_counts]
    return _rows("num_vcs", points, max_workers, check, **scheduler)


def sweep_buffer_depth(depths=(2, 4, 8), max_workers: int | None = None,
                       check: bool = False, **overrides) -> list[dict]:
    """Ablate the per-VC buffer depth (baseline vs Pseudo+S+B per point)."""
    scheduler = _scheduler_kwargs(overrides)
    sweep_seed = overrides.pop("seed", 1)
    points = [(d, _synthetic(buffer_depth=d,
                             seed=derive_seed(sweep_seed, "buffers", d),
                             **overrides))
              for d in depths]
    return _rows("buffer_depth", points, max_workers, check, **scheduler)


def sweep_load(loads=(0.05, 0.15, 0.25), max_workers: int | None = None,
               check: bool = False, **overrides) -> list[dict]:
    """Ablate the injection rate (baseline vs Pseudo+S+B per point)."""
    scheduler = _scheduler_kwargs(overrides)
    sweep_seed = overrides.pop("seed", 1)
    points = [(load, _synthetic(rate=load,
                                seed=derive_seed(sweep_seed, "load", load),
                                **overrides))
              for load in loads]
    return _rows("load", points, max_workers, check, **scheduler)
