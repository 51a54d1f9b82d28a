"""Trace extraction with per-process memoization.

Mirrors the paper's methodology: traces are extracted once per benchmark
from the closed-loop CMP substrate (on the paper's cmesh CMP configuration)
and then replayed against every router configuration under test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..cmp.system import CmpSystem
    from ..traffic.trace import Trace

_trace_cache: dict[tuple, Trace] = {}
_cmp_cache: dict[tuple, CmpSystem] = {}


def get_cmp_run(benchmark: str, cycles: int = 2000, warmup: int = 400,
                seed: int = 1) -> CmpSystem:
    """A finished closed-loop CMP run for ``benchmark`` (memoized)."""
    key = (benchmark, cycles, warmup, seed)
    system = _cmp_cache.get(key)
    if system is None:
        from ..cmp.system import CmpSystem  # the CMP loads when extracting
        system = CmpSystem(benchmark, seed=seed)
        system.run(cycles + warmup, record_trace=True, warmup=warmup)
        _cmp_cache[key] = system
    return system


def get_trace(benchmark: str, cycles: int = 2000, warmup: int = 400,
              seed: int = 1) -> Trace:
    """The injection trace of the corresponding CMP run (memoized)."""
    key = (benchmark, cycles, warmup, seed)
    trace = _trace_cache.get(key)
    if trace is None:
        trace = get_cmp_run(benchmark, cycles, warmup, seed).trace
        _trace_cache[key] = trace
    return trace


def clear_caches() -> None:
    _trace_cache.clear()
    _cmp_cache.clear()
