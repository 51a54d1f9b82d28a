"""Topologies for the on-chip network (paper Sections V and VII.A).

``TOPOLOGY_REGISTRY`` is the machine-readable catalogue behind
docs/TOPOLOGIES.md: every constructible topology name with its CLI
constructor flags and routing/backend support matrix. The drift test in
tests/docs/test_topologies_doc.py walks it, so adding a topology here
without documenting it (or vice versa) fails CI.
"""

from dataclasses import dataclass

from .base import Channel, Endpoint, GridTopology, Topology
from .chiplet import ChipletTopology
from .fbfly import FlattenedButterfly
from .hetero import HeterogeneousTopology, OutChannel
from .kite import KiteMesh
from .mecs import Mecs
from .mesh import ConcentratedMesh, Mesh

__all__ = [
    "Channel",
    "ChipletTopology",
    "ConcentratedMesh",
    "Endpoint",
    "FlattenedButterfly",
    "GridTopology",
    "HeterogeneousTopology",
    "KiteMesh",
    "Mecs",
    "Mesh",
    "OutChannel",
    "TOPOLOGY_REGISTRY",
    "Topology",
    "TopologyInfo",
    "make_topology",
]


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
_ALL_BACKENDS = ("scalar", "vectorized", "batched")

TOPOLOGY_REGISTRY: dict[str, TopologyInfo] = {
    info.name: info for info in (
        TopologyInfo(
            name="mesh",
            summary="kx x ky 2D mesh, one terminal block per router",
            flags=_GRID_FLAGS,
            routings=("xy", "yx", "o1turn"),
            backends=_ALL_BACKENDS,
        ),
        TopologyInfo(
            name="cmesh",
            summary="concentrated mesh: mesh wiring, >1 terminal per router",
            flags=_GRID_FLAGS,
            routings=("xy", "yx", "o1turn"),
            backends=_ALL_BACKENDS,
        ),
        TopologyInfo(
            name="fbfly",
            summary="flattened butterfly: full row/column express links",
            flags=_GRID_FLAGS,
            routings=("xy", "yx", "o1turn"),
            backends=_ALL_BACKENDS,
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
            backends=_ALL_BACKENDS,
        ),
        TopologyInfo(
            name="kite",
            summary="gem5 Kite-style irregular mesh with skip-2 express "
                    "channels",
            flags=_GRID_FLAGS,
            routings=("weighted",),
            backends=_ALL_BACKENDS,
        ),
    )
}


def make_topology(name: str, kx: int, ky: int, concentration: int = 1,
                  *, chiplets: int = 4,
                  chiplet_link_latency: int = 4) -> Topology:
    """Factory keyed by topology name (see ``TOPOLOGY_REGISTRY``)."""
    if name == "mesh":
        return Mesh(kx, ky, concentration)
    if name == "cmesh":
        return ConcentratedMesh(kx, ky, concentration)
    if name == "fbfly":
        return FlattenedButterfly(kx, ky, concentration)
    if name == "mecs":
        return Mecs(kx, ky, concentration)
    if name == "chiplet":
        return ChipletTopology(kx, ky, concentration, chiplets=chiplets,
                               chiplet_link_latency=chiplet_link_latency)
    if name == "kite":
        return KiteMesh(kx, ky, concentration)
    raise ValueError(f"unknown topology {name!r}")
