"""The paper's primary contribution: pseudo-circuit state.

The pseudo-circuit register and the termination reasons; the rules that
act on them (SA skip, speculation, buffer bypass) are stated once per
core, in :mod:`repro.network.router` and ``vectorized/kernel.c``.
"""

from .pseudo_circuit import PseudoCircuitRegister, Termination

__all__ = [
    "PseudoCircuitRegister",
    "Termination",
]
