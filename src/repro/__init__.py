"""repro — reproduction of "Pseudo-Circuit: Accelerating Communication for
On-Chip Interconnection Networks" (Ahn & Kim, MICRO 2010).

Public API quick tour::

    from repro import (Mesh, NetworkConfig, Network, SyntheticTraffic,
                       PSEUDO_SB)

    topo = Mesh(8, 8)
    net = Network(topo, NetworkConfig(pseudo=PSEUDO_SB),
                  routing="xy", vc_policy="static")
    net.run(10_000, SyntheticTraffic("uniform", topo.num_terminals, 0.1))
    print(net.stats.avg_latency, net.stats.reusability)

Every name below loads its module on first use (``repro._lazy``), so
``import repro`` costs next to nothing and a run loads only the modules
it uses.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every figure and table.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

_names, __getattr__, __dir__ = lazy_exports(__name__, {
    ".network.config": ("ALL_SCHEMES", "BASELINE", "PC_SCHEMES", "PSEUDO",
                        "PSEUDO_B", "PSEUDO_S", "PSEUDO_SB", "NetworkConfig",
                        "PseudoCircuitConfig"),
    ".network.flit": ("Packet",),
    ".network.simulator": ("Network", "build_network"),
    ".topology": ("make_topology",),
    ".topology.fbfly": ("FlattenedButterfly",),
    ".topology.mecs": ("Mecs",),
    ".topology.mesh": ("ConcentratedMesh", "Mesh"),
    ".traffic.synthetic": ("SyntheticTraffic",),
})
__all__ = [*_names, "__version__"]
