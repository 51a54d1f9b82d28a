"""Chiplet topology: K sub-meshes around a central IO die.

Models a Zen-3-style package: ``chiplets`` compute dies, each an
``kx`` x ``ky`` mesh of routers, plus one IO-die router in the middle.
Each chiplet's corner router (local ``(0, 0)``, the *gateway*) connects
to the IO router by a duplex boundary channel whose wire latency is
``chiplet_link_latency`` — the slow die-to-die SerDes hop this topology
exists to study. All other channels are ordinary latency-1 mesh wires.

Routing weights follow the gem5 link-class convention that
weight-ordered routing ([routing.weighted]) minimizes: intra-die x links
weight 1, intra-die y links weight 2, boundary links weight 3. With
those weights a minimal-weight path never crosses a boundary channel
unless source and destination sit on different dies, so intra-die
traffic stays intra-die.

Traffic is split into two VC classes, class 0 (same-die) and class 1
(cross-die, via :meth:`route_class`). Deadlock freedom does not need the
split: with these weights every in-die path is x-then-y, a path leaving
a gateway only moves away from it and a path to it only toward it, so
no chain of channels returns to an up-link, and one class is acyclic
too (``compile_routing`` finds every shape with kx, ky <= 4 and up to
five dies acyclic in one class). ``compile_routing`` verifies the two
classes the routing draws, as it does for every routing.

Port numbering is registration order (see ``HeterogeneousTopology``):
within each die, routers in local-id order register their +x duplex
link then their +y duplex link; after all dies, the gateway<->IO duplex
pairs are registered in die order. ``out_channels(router)`` is the
authoritative per-router map.
"""

from __future__ import annotations

from .hetero import HeterogeneousTopology

X_WEIGHT = 1
Y_WEIGHT = 2
BOUNDARY_WEIGHT = 3


class ChipletTopology(HeterogeneousTopology):
    """K ``kx`` x ``ky`` mesh chiplets star-connected to a central IO die."""

    name = "chiplet"
    num_route_classes = 2

    def __init__(self, kx: int = 2, ky: int = 2, concentration: int = 1,
                 chiplets: int = 4, chiplet_link_latency: int = 4):
        if kx < 1 or ky < 1:
            raise ValueError("chiplet sub-mesh needs kx >= 1 and ky >= 1")
        if chiplets < 1:
            raise ValueError("need at least one chiplet")
        if chiplet_link_latency < 1:
            raise ValueError("chiplet link latency must be >= 1")
        self.sub_kx = kx
        self.sub_ky = ky
        self.chiplets = chiplets
        self.chiplet_link_latency = chiplet_link_latency
        routers_per_die = kx * ky
        super().__init__(chiplets * routers_per_die + 1, concentration)

        for die in range(chiplets):
            for y in range(ky):
                for x in range(kx):
                    r = self.router_id(die, x, y)
                    if x + 1 < kx:
                        self.add_duplex(r, self.router_id(die, x + 1, y),
                                        latency=1, weight=X_WEIGHT)
                    if y + 1 < ky:
                        self.add_duplex(r, self.router_id(die, x, y + 1),
                                        latency=1, weight=Y_WEIGHT)
        for die in range(chiplets):
            self.add_duplex(self.gateway(die), self.io_router,
                            latency=chiplet_link_latency,
                            weight=BOUNDARY_WEIGHT)

    # -- structure -----------------------------------------------------------

    @property
    def io_router(self) -> int:
        """Router id of the central IO die (the highest id)."""
        return self.num_routers - 1

    def router_id(self, die: int, x: int, y: int) -> int:
        if not 0 <= die < self.chiplets:
            raise ValueError(f"die {die} out of range (<{self.chiplets})")
        if not (0 <= x < self.sub_kx and 0 <= y < self.sub_ky):
            raise ValueError(f"local coordinates ({x},{y}) out of range")
        return die * self.sub_kx * self.sub_ky + y * self.sub_kx + x

    def gateway(self, die: int) -> int:
        """The die's corner router holding its boundary link."""
        return self.router_id(die, 0, 0)

    def die_of(self, router: int) -> int | None:
        """Die index of ``router``, or ``None`` for the IO router."""
        if not 0 <= router < self.num_routers:
            raise ValueError(f"router {router} out of range")
        if router == self.io_router:
            return None
        return router // (self.sub_kx * self.sub_ky)

    def local_coords(self, router: int) -> tuple[int, int]:
        """Coordinates of ``router`` within its die (IO router rejected)."""
        if self.die_of(router) is None:
            raise ValueError("the IO router has no die-local coordinates")
        local = router % (self.sub_kx * self.sub_ky)
        return local % self.sub_kx, local // self.sub_kx

    # -- routing hooks -------------------------------------------------------

    def route_class(self, src_router: int, dst_router: int) -> int:
        """0 for same-die traffic, 1 for traffic crossing the IO die."""
        return 0 if self.die_of(src_router) == self.die_of(dst_router) else 1
