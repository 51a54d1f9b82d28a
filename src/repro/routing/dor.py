"""Dimension-order routing (Sullivan & Bashkow, 1977) for the four
supported topologies: XY and YX variants.

For meshes a packet fully corrects one dimension a hop at a time; on
flattened-butterfly and MECS express channels one network hop corrects an
entire dimension (MECS additionally returns the multidrop index). DOR is
deadlock-free on these topologies without VC restrictions.
"""

from __future__ import annotations

from ..topology.base import Topology
from ..topology.fbfly import FlattenedButterfly
from ..topology.mecs import EAST, Mecs, NORTH, SOUTH, WEST
from ..topology.mesh import Mesh
from .base import RoutingAlgorithm


class DimensionOrderRouting(RoutingAlgorithm):
    """XY (``order='xy'``) or YX (``order='yx'``) minimal routing.

    ``route_choice`` 1 flips the dimension order, which is how O1TURN
    reuses this implementation.
    """

    num_vc_classes = 1
    num_route_choices = 2  # 0: configured order, 1: flipped (O1TURN)

    def __init__(self, topology: Topology, order: str = "xy"):
        super().__init__(topology)
        if order not in ("xy", "yx"):
            raise ValueError(f"order must be 'xy' or 'yx', got {order!r}")
        if not isinstance(topology, (Mesh, FlattenedButterfly, Mecs)):
            raise TypeError(
                f"DOR does not support topology {type(topology).__name__}")
        self.order = order
        self.name = order

    def route_entry(self, router: int, dst: int,
                    route_choice: int) -> tuple[int, int]:
        topo = self.topology
        dst_router = topo.terminal_router(dst)
        if router == dst_router:
            return topo.ejection_port(dst), 0
        x, y = topo.coords(router)
        dx, dy = topo.coords(dst_router)
        order = self.order if route_choice == 0 else (
            "yx" if self.order == "xy" else "xy")
        if order == "xy":
            dim = "x" if dx != x else "y"
        else:
            dim = "y" if dy != y else "x"
        return self._hop(router, x, y, dx, dy, dim)

    def _hop(self, router: int, x: int, y: int, dx: int, dy: int,
             dim: str) -> tuple[int, int]:
        topo = self.topology
        if isinstance(topo, Mesh):
            if dim == "x":
                return (EAST if dx > x else WEST), 0
            return (NORTH if dy > y else SOUTH), 0
        if isinstance(topo, FlattenedButterfly):
            target = (topo.router_at(dx, y) if dim == "x"
                      else topo.router_at(x, dy))
            return topo.port_to(router, target), 0
        if isinstance(topo, Mecs):
            if dim == "x":
                direction = EAST if dx > x else WEST
                drop = abs(dx - x) - 1
            else:
                direction = NORTH if dy > y else SOUTH
                drop = abs(dy - y) - 1
            return direction, drop
        raise TypeError(f"unsupported topology {type(topo).__name__}")


def xy_routing(topology: Topology) -> DimensionOrderRouting:
    return DimensionOrderRouting(topology, "xy")


def yx_routing(topology: Topology) -> DimensionOrderRouting:
    return DimensionOrderRouting(topology, "yx")
