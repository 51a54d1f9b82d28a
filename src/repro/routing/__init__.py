"""Routing algorithms (paper Section V: XY, YX, O1TURN) plus
weight-ordered table routing for heterogeneous graphs.

Each name loads its module on first use, and ``make_routing`` loads
only the algorithm it builds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from ..topology.base import Topology
    from .base import RoutingAlgorithm

_names, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("RoutingAlgorithm",),
    ".compiled": ("CompiledRouting", "RoutingDeadlockError",
                  "compile_routing"),
    ".dor": ("DimensionOrderRouting", "xy_routing", "yx_routing"),
    ".o1turn": ("O1TurnRouting",),
    ".weighted": ("WeightOrderedRouting",),
})
__all__ = sorted([*_names, "make_routing"])


def make_routing(name: str, topology: Topology) -> RoutingAlgorithm:
    """Factory keyed by algorithm name ('xy'|'yx'|'o1turn'|'weighted')."""
    if name in ("xy", "yx"):
        from .dor import DimensionOrderRouting
        return DimensionOrderRouting(topology, name)
    if name == "o1turn":
        from .o1turn import O1TurnRouting
        return O1TurnRouting(topology)
    if name == "weighted":
        from .weighted import WeightOrderedRouting
        return WeightOrderedRouting(topology)
    raise ValueError(f"unknown routing algorithm {name!r}")
