"""Routing algorithms (paper Section V: XY, YX, O1TURN) plus
weight-ordered table routing for heterogeneous graphs."""

from ..topology.base import Topology
from .base import RoutingAlgorithm
from .compiled import CompiledRouting, RoutingDeadlockError, compile_routing
from .dor import DimensionOrderRouting, xy_routing, yx_routing
from .o1turn import O1TurnRouting
from .weighted import WeightOrderedRouting

__all__ = [
    "CompiledRouting",
    "DimensionOrderRouting",
    "O1TurnRouting",
    "RoutingAlgorithm",
    "RoutingDeadlockError",
    "WeightOrderedRouting",
    "compile_routing",
    "make_routing",
    "xy_routing",
    "yx_routing",
]


def make_routing(name: str, topology: Topology) -> RoutingAlgorithm:
    """Factory keyed by algorithm name ('xy'|'yx'|'o1turn'|'weighted')."""
    if name == "xy":
        return xy_routing(topology)
    if name == "yx":
        return yx_routing(topology)
    if name == "o1turn":
        return O1TurnRouting(topology)
    if name == "weighted":
        return WeightOrderedRouting(topology)
    raise ValueError(f"unknown routing algorithm {name!r}")
