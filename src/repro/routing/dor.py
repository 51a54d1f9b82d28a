"""Dimension-order routing (Sullivan & Bashkow, 1977) for the four
supported topologies: XY and YX variants.

For meshes a packet fully corrects one dimension a hop at a time; on
flattened-butterfly and MECS express channels one network hop corrects an
entire dimension (MECS additionally returns the multidrop index). One
order in one VC class is deadlock-free, verified by ``compile_routing``
for every routing.
"""

from __future__ import annotations

from ..topology.base import Topology
from ..topology.mesh import EAST, NORTH, SOUTH, WEST, Mesh
from .base import RoutingAlgorithm


def _express_kind(topology: Topology) -> str | None:
    """``"fbfly"`` or ``"mecs"`` for the express-channel grids DOR
    routes, else ``None``; their modules load only for such a grid."""
    from ..topology.fbfly import FlattenedButterfly
    from ..topology.mecs import Mecs
    for cls, kind in ((FlattenedButterfly, "fbfly"), (Mecs, "mecs")):
        if isinstance(topology, cls):
            return kind
    return None


class DimensionOrderRouting(RoutingAlgorithm):
    """XY (``order='xy'``) or YX (``order='yx'``) minimal routing.

    ``route_entry``'s ``route_choice`` 1 flips the dimension order, which
    is how O1TURN reuses this implementation; plain XY / YX draw only
    choice 0.
    """

    num_vc_classes = 1

    def __init__(self, topology: Topology, order: str = "xy"):
        super().__init__(topology)
        if order not in ("xy", "yx"):
            raise ValueError(f"order must be 'xy' or 'yx', got {order!r}")
        #: How one hop corrects a dimension: a mesh link, or one express
        #: channel (MECS also names the drop).
        self._kind = ("mesh" if isinstance(topology, Mesh)
                      else _express_kind(topology))
        if self._kind is None:
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
        if self._kind == "mesh":
            if dim == "x":
                return (EAST if dx > x else WEST), 0
            return (NORTH if dy > y else SOUTH), 0
        if self._kind == "fbfly":
            target = (topo.router_at(dx, y) if dim == "x"
                      else topo.router_at(x, dy))
            return topo.port_to(router, target), 0
        if dim == "x":  # MECS
            return (EAST if dx > x else WEST), abs(dx - x) - 1
        return (NORTH if dy > y else SOUTH), abs(dy - y) - 1


def xy_routing(topology: Topology) -> DimensionOrderRouting:
    return DimensionOrderRouting(topology, "xy")


def yx_routing(topology: Topology) -> DimensionOrderRouting:
    return DimensionOrderRouting(topology, "yx")
