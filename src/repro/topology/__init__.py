"""Topologies for the on-chip network (paper Sections V and VII.A).

``TOPOLOGY_REGISTRY`` is the machine-readable catalogue behind
docs/TOPOLOGIES.md: every constructible topology name with its CLI
constructor flags and routing/backend support matrix. The drift test in
tests/docs/test_topologies_doc.py walks it, so adding a topology here
without documenting it (or vice versa) fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from ..network.backend import CONCRETE_BACKENDS

if TYPE_CHECKING:
    from .base import Topology

#: The topology classes load on first use: a run builds one of them.
_names, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("Channel", "Endpoint", "GridTopology", "Topology"),
    ".chiplet": ("ChipletTopology",),
    ".fbfly": ("FlattenedButterfly",),
    ".hetero": ("HeterogeneousTopology", "OutChannel"),
    ".kite": ("KiteMesh",),
    ".mecs": ("Mecs",),
    ".mesh": ("ConcentratedMesh", "Mesh"),
})
__all__ = sorted([*_names, "TOPOLOGY_REGISTRY", "TopologyInfo",
                  "UnsupportedRoutingError", "check_routing",
                  "make_topology"])


@dataclass(frozen=True)
class TopologyInfo:
    """Registry entry: how a topology is built and what supports it."""

    name: str
    summary: str
    #: CLI flags that parameterize the constructor.
    flags: tuple[str, ...]
    #: Routing algorithm names (make_routing) that accept the topology.
    routings: tuple[str, ...]
    #: Backends (network cores) that accept it.
    backends: tuple[str, ...]
    #: True when channels reach several routers (vectorized core refuses).
    multidrop: bool = False


_GRID_FLAGS = ("--kx", "--ky", "--concentration")

TOPOLOGY_REGISTRY: dict[str, TopologyInfo] = {
    info.name: info for info in (
        TopologyInfo(
            name="mesh",
            summary="kx x ky 2D mesh, one terminal block per router",
            flags=_GRID_FLAGS,
            routings=("xy", "yx", "o1turn"),
            backends=CONCRETE_BACKENDS,
        ),
        TopologyInfo(
            name="cmesh",
            summary="concentrated mesh: mesh wiring, >1 terminal per router",
            flags=_GRID_FLAGS,
            routings=("xy", "yx", "o1turn"),
            backends=CONCRETE_BACKENDS,
        ),
        TopologyInfo(
            name="fbfly",
            summary="flattened butterfly: full row/column express links",
            flags=_GRID_FLAGS,
            routings=("xy", "yx", "o1turn"),
            backends=CONCRETE_BACKENDS,
        ),
        TopologyInfo(
            name="mecs",
            summary="multidrop express cubes: one multidrop channel per "
                    "direction",
            flags=_GRID_FLAGS,
            routings=("xy", "yx", "o1turn"),
            backends=("scalar",),
            multidrop=True,
        ),
        TopologyInfo(
            name="chiplet",
            summary="K kx x ky mesh chiplets around a central IO die, slow "
                    "boundary links",
            flags=_GRID_FLAGS + ("--chiplets", "--chiplet-link-latency"),
            routings=("weighted",),
            backends=CONCRETE_BACKENDS,
        ),
        TopologyInfo(
            name="kite",
            summary="gem5 Kite-style irregular mesh with skip-2 express "
                    "channels",
            flags=_GRID_FLAGS,
            routings=("weighted",),
            backends=CONCRETE_BACKENDS,
        ),
    )
}


class UnsupportedRoutingError(ValueError):
    """A routing the registry does not list for the topology."""


def check_routing(topology: str, routing: str) -> None:
    """Refuse ``routing`` on a registry ``topology`` that does not list
    it, naming the routings that topology takes."""
    info = TOPOLOGY_REGISTRY.get(topology)
    if info is not None and routing not in info.routings:
        raise UnsupportedRoutingError(
            f"topology {topology!r} takes --routing "
            f"{' | '.join(info.routings)}, not {routing!r}")


def make_topology(name: str, kx: int, ky: int, concentration: int = 1,
                  *, chiplets: int = 4,
                  chiplet_link_latency: int = 4) -> Topology:
    """Factory keyed by topology name (see ``TOPOLOGY_REGISTRY``)."""
    if name == "mesh":
        from .mesh import Mesh
        return Mesh(kx, ky, concentration)
    if name == "cmesh":
        from .mesh import ConcentratedMesh
        return ConcentratedMesh(kx, ky, concentration)
    if name == "fbfly":
        from .fbfly import FlattenedButterfly
        return FlattenedButterfly(kx, ky, concentration)
    if name == "mecs":
        from .mecs import Mecs
        return Mecs(kx, ky, concentration)
    if name == "chiplet":
        from .chiplet import ChipletTopology
        return ChipletTopology(kx, ky, concentration, chiplets=chiplets,
                               chiplet_link_latency=chiplet_link_latency)
    if name == "kite":
        from .kite import KiteMesh
        return KiteMesh(kx, ky, concentration)
    raise ValueError(f"unknown topology {name!r}")
