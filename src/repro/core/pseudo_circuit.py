"""Pseudo-circuit registers and comparator logic (paper Section III).

A *pseudo-circuit* is a crossbar connection (input port -> output port) left
connected after a flit traversal so that a subsequent flit taking the same
connection can skip switch arbitration (SA). Each input port owns one
pseudo-circuit register holding the most recent arbitration result:

* the input VC that was granted (the comparator's VC mux selects it),
* the output port of the connection,
* a valid bit.

Termination clears only the valid bit; the registers keep their values so
that pseudo-circuit *speculation* can later restore the connection (Section
IV.A). The hardware cost is two small registers, a flag, a mux and one
comparator per input port — 37ps in the authors' 45nm HSPICE analysis, which
fits inside the 250ps ST stage, so reuse costs no extra cycle.
"""

from __future__ import annotations

from enum import Enum


class Termination(Enum):
    """Why a pseudo-circuit was torn down (used by stats and tests)."""

    CONFLICT_OUTPUT = "conflict_output"  # SA gave the output to another input
    CONFLICT_INPUT = "conflict_input"      # this input was granted elsewhere
    ROUTE_MISMATCH = "route_mismatch"      # arriving head wants another output
    NO_CREDIT = "no_credit"                # downstream congestion
    SPECULATION_EVICT = "speculation_evict"


class PseudoCircuitRegister:
    """Per-input-port pseudo-circuit state."""

    __slots__ = ("in_vc", "out_port", "valid")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Initial state: never established (nothing to restore)."""
        self.in_vc = -1
        self.out_port = -1
        self.valid = False

    def establish(self, in_vc: int, out_port: int) -> None:
        """Record the arbitration result of a flit traversal (always done,
        whether the traversal came from SA or from a reuse)."""
        self.in_vc = in_vc
        self.out_port = out_port
        self.valid = True

    def invalidate(self) -> None:
        """Terminate: clear the valid bit, keep register contents."""
        self.valid = False

    def restore(self) -> None:
        """Speculatively revalidate the stored connection (Section IV.A)."""
        if self.out_port < 0 or self.in_vc < 0:
            raise RuntimeError("cannot restore a never-established register")
        self.valid = True

    # -- comparator ----------------------------------------------------------

    def matches_head(self, vc: int, out_port: int) -> bool:
        """Head flits must match both the stored VC and the routing info."""
        return self.valid and self.in_vc == vc and self.out_port == out_port

    def matches_body(self, vc: int) -> bool:
        """Body/tail flits carry no routing info; matching the VC suffices
        (the header already validated the route for this circuit)."""
        return self.valid and self.in_vc == vc

    def conflicts_with_route(self, vc: int, out_port: int) -> bool:
        """A head flit on the circuit's VC that wants a *different* output:
        the comparator mismatch terminates the circuit."""
        return self.valid and self.in_vc == vc and self.out_port != out_port

    def __repr__(self) -> str:
        flag = "valid" if self.valid else "invalid"
        return f"PC(vc={self.in_vc}, out={self.out_port}, {flag})"
