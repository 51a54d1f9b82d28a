"""Pseudo-circuit registers and termination reasons (paper Sections
III-IV).

A *pseudo-circuit* is a crossbar connection (input port -> output port) left
connected after a flit traversal so that a subsequent flit taking the same
connection can skip switch arbitration (SA). Each input port owns one
pseudo-circuit register holding the most recent arbitration result:

* the input VC that was granted (the comparator's VC mux selects it),
* the output port of the connection,
* a valid bit.

A head flit matches on VC and output, a body or tail flit on VC alone.
Termination clears only the valid bit; the registers keep their values so
that *speculation* (Section IV.A) can restore the connection: each output
keeps the input of its most recently terminated circuit
(``OutputPort.last_input``), and a free output with credits restores the
one invalidated circuit naming it, or among several the history's. *Buffer
bypass* (Section IV.B) lets a flit arriving on the empty VC of a matching
circuit skip the buffer write too. The hardware cost is two small
registers, a flag, a mux and one comparator per input port — 37ps in the
authors' 45nm HSPICE analysis, which fits inside the 250ps ST stage, so
reuse costs no extra cycle.
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

    # Members are singletons: hash by identity in C rather than by name
    # in Python (a counter keyed by reason is bumped per termination).
    # Nothing iterates a set of reasons, so no order depends on it.
    __hash__ = object.__hash__


class PseudoCircuitRegister:
    """Per-input-port pseudo-circuit state, read and written by the
    router's cycle: a traversal sets all three fields, a termination
    clears ``valid`` only, a speculative restore sets it again."""

    __slots__ = ("in_vc", "out_port", "valid")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Initial state: never established (nothing to restore)."""
        self.in_vc = -1
        self.out_port = -1
        self.valid = False

    def __repr__(self) -> str:
        flag = "valid" if self.valid else "invalid"
        return f"PC(vc={self.in_vc}, out={self.out_port}, {flag})"
