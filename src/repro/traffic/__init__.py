"""Traffic models: synthetic patterns, benchmark profiles, trace replay.

Each name loads its module on first use: a synthetic run loads neither
the benchmark profiles nor trace replay.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".benchmarks": ("BENCHMARKS", "PROFILES", "BenchmarkProfile",
                    "get_profile"),
    ".synthetic": ("PAPER_PATTERNS", "SyntheticTraffic",
                   "destination_function"),
    ".trace": ("Trace", "TraceRecord", "TraceReplayTraffic"),
})
