"""Routing and VC partitioning for the EVC mesh.

Dynamic EVC with l_max = 2: whenever at least ``span`` hops remain in the
dimension currently being corrected (XY order), the packet takes the express
channel; otherwise the normal channel. Half of the VCs are reserved as
express VCs (EVCs) — only flits on express channels may use them — and the
other half are the normal VCs (NVCs). This reservation is what the paper
identifies as EVC's weakness on low-diameter topologies: normal traffic is
squeezed into half the VCs while the EVCs sit underused.
"""

from __future__ import annotations

from ..routing.base import RoutingAlgorithm
from ..topology.mesh import EAST, NORTH, SOUTH, WEST
from .topology import EvcMesh


class EvcRouting(RoutingAlgorithm):
    """XY dimension-order routing over normal + express channels."""

    name = "evc_xy"
    num_vc_classes = 2

    def __init__(self, topology: EvcMesh):
        if not isinstance(topology, EvcMesh):
            raise TypeError("EvcRouting requires an EvcMesh topology")
        super().__init__(topology)

    def route_entry(self, router: int, dst: int,
                    route_choice: int) -> tuple[int, int]:
        topo: EvcMesh = self.topology
        dst_router = topo.terminal_router(dst)
        if router == dst_router:
            return topo.ejection_port(dst), 0
        x, y = topo.coords(router)
        dx, dy = topo.coords(dst_router)
        if dx != x:
            direction = EAST if dx > x else WEST
            remaining = abs(dx - x)
        else:
            direction = NORTH if dy > y else SOUTH
            remaining = abs(dy - y)
        if (remaining >= topo.span
                and topo.express_neighbor(router, direction) is not None):
            return topo.express_port(direction), 0
        return direction, 0

    def vc_window(self, route_choice: int, out_port: int,
                  num_vcs: int) -> tuple[int, int]:
        if num_vcs < 2:
            raise ValueError("EVC needs at least 2 VCs (one per class)")
        half = num_vcs // 2
        if 4 <= out_port < 8:  # express channel -> express VCs
            return half, num_vcs
        return 0, half         # normal channels, injection, ejection -> NVCs
