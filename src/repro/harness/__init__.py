"""Experiment harness: configs, runners, per-figure reproduction."""

from .bench import run_bench
from .experiment import (ExperimentConfig, Result, build_network,
                         clear_cache, run_experiment)
from .figures import (ALL_FIGURES, fig1, fig6, fig8, fig9, fig10, fig11,
                      fig12, fig13, fig14, table1, table2)
from .parallel import derive_seed, prefetch, run_experiments
from .report import format_table, print_table, reduction
from .traces import get_cmp_run, get_trace

__all__ = [
    "ALL_FIGURES",
    "ExperimentConfig",
    "Result",
    "build_network",
    "clear_cache",
    "derive_seed",
    "prefetch",
    "run_bench",
    "run_experiments",
    "fig1",
    "fig6",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "format_table",
    "get_cmp_run",
    "get_trace",
    "print_table",
    "reduction",
    "run_experiment",
    "table1",
    "table2",
]
