"""Cycle-accurate flit-based wormhole NoC simulator (paper Section V).

Each name loads its module on first use, so a process that runs only
the array core (``network.vectorized``) never loads the scalar one.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".arbiters": ("round_robin",),
    ".config": ("ALL_SCHEMES", "BASELINE", "PC_SCHEMES", "PSEUDO",
                "PSEUDO_B", "PSEUDO_S", "PSEUDO_SB", "NetworkConfig",
                "PseudoCircuitConfig"),
    ".credits": ("CreditError",),
    ".errors": ("BufferOverflowError", "ProtocolError"),
    ".flit": ("Flit", "FlitType", "Packet"),
    ".link": ("Link",),
    ".nic": ("Nic",),
    ".ports": ("InputPort", "OutEndpoint", "OutputPort", "OutVC"),
    ".router": ("Router",),
    ".simulator": ("Network", "build_network"),
    ".vc": ("VCState", "VirtualChannel"),
})
