"""Trace extraction with per-process memoization.

Mirrors the paper's methodology: traces are extracted once per benchmark
from the closed-loop CMP substrate (on the paper's cmesh CMP configuration)
and then replayed against every router configuration under test. What an
extraction keeps is its trace and the two locality counters of Fig. 1;
the CMP system that produced them is dropped with its caches, cores and
network.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from ..traffic.trace import Trace


class Extraction(NamedTuple):
    """What one closed-loop CMP run leaves behind: its injection trace
    and its network's temporal locality (Fig. 1)."""

    trace: Trace
    e2e_locality: float
    xbar_locality: float


#: (benchmark, cycles, warmup, seed) -> that run's ``Extraction``.
_extractions: dict[tuple, Extraction] = {}


def extract(benchmark: str, cycles: int = 2000, warmup: int = 400,
            seed: int = 1) -> Extraction:
    """The closed-loop CMP run for ``benchmark``, as it is kept
    (memoized)."""
    key = (benchmark, cycles, warmup, seed)
    entry = _extractions.get(key)
    if entry is None:
        from ..cmp.system import CmpSystem  # the CMP loads when extracting
        system = CmpSystem(benchmark, seed=seed)
        system.run(cycles + warmup, record_trace=True, warmup=warmup)
        stats = system.network.stats
        entry = _extractions[key] = Extraction(
            system.trace, stats.e2e_locality, stats.xbar_locality)
    return entry


def get_trace(benchmark: str, cycles: int = 2000, warmup: int = 400,
              seed: int = 1) -> Trace:
    """The injection trace of the corresponding CMP run (memoized)."""
    return extract(benchmark, cycles, warmup, seed).trace


def clear_caches() -> None:
    _extractions.clear()
