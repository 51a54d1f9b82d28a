"""O1TURN routing (Seo et al., ISCA 2005).

Each packet randomly picks XY or YX order at injection and keeps it for its
whole flight; this is near worst-case-optimal for 2D meshes. Deadlock
freedom requires that XY packets and YX packets use disjoint VC classes, so
the VC space is split in half (paper Section V uses 4 VCs: 2 per class).
"""

from __future__ import annotations

import random

from ..network.flit import Packet
from ..topology.base import Topology
from .dor import DimensionOrderRouting


class O1TurnRouting(DimensionOrderRouting):
    name = "o1turn"
    num_vc_classes = 2

    def __init__(self, topology: Topology):
        super().__init__(topology, "xy")
        self.name = "o1turn"

    def on_inject(self, packet: Packet, rng: random.Random) -> None:
        # route_choice 0 keeps the base order (XY), 1 flips it to YX.
        packet.route_choice = rng.randrange(2)

    def vc_window(self, route_choice: int, out_port: int,
                  num_vcs: int) -> tuple[int, int]:
        if num_vcs < 2:
            raise ValueError("O1TURN needs at least 2 VCs (one per class)")
        half = num_vcs // 2
        if route_choice == 0:
            return 0, half
        return half, num_vcs
