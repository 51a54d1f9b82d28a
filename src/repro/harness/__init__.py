"""Experiment harness: configs, runners, per-figure reproduction.

Each name loads its module on first use: a sweep loads neither the
bench gate nor the figures, and ``run_experiments`` loads the process
pool only when it forks one.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bench": ("run_bench",),
    ".experiment": ("ExperimentConfig", "Result", "build_network",
                    "clear_cache", "run_experiment"),
    ".figures": ("ALL_FIGURES", "fig1", "fig6", "fig8", "fig9", "fig10",
                 "fig11", "fig12", "fig13", "fig14", "table1", "table2"),
    ".parallel": ("derive_seed", "run_experiments"),
    ".report": ("format_table", "print_table", "reduction"),
    ".traces": ("get_cmp_run", "get_trace"),
})
