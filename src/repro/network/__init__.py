"""Cycle-accurate flit-based wormhole NoC simulator (paper Section V)."""

from .arbiters import round_robin
from .config import (ALL_SCHEMES, BASELINE, PC_SCHEMES, PSEUDO, PSEUDO_B,
                     PSEUDO_S, PSEUDO_SB, NetworkConfig, PseudoCircuitConfig)
from .credits import CreditError
from .flit import Flit, FlitType, Packet
from .link import Link
from .nic import Nic
from .ports import InputPort, OutEndpoint, OutputPort, OutVC
from .router import ProtocolError, Router
from .simulator import Network, build_network
from .vc import BufferOverflowError, VCState, VirtualChannel

__all__ = [
    "ALL_SCHEMES",
    "BASELINE",
    "BufferOverflowError",
    "CreditError",
    "Flit",
    "FlitType",
    "InputPort",
    "Link",
    "Network",
    "NetworkConfig",
    "Nic",
    "OutEndpoint",
    "OutVC",
    "OutputPort",
    "PC_SCHEMES",
    "PSEUDO",
    "PSEUDO_B",
    "PSEUDO_S",
    "PSEUDO_SB",
    "Packet",
    "ProtocolError",
    "PseudoCircuitConfig",
    "Router",
    "VCState",
    "VirtualChannel",
    "build_network",
    "round_robin",
]
