"""Pseudo-circuit speculation (paper Section IV.A).

Crossbar connections that are currently unallocated may well be claimed by
near-future flits. Speculation re-establishes, per output port, the pseudo-
circuit that *most recently* used that output, predicting the repetition of
the previous communication. Each output port keeps a history register with
the input port of the most recently terminated pseudo-circuit; conflicts
between several inputs whose registers point at the same output are resolved
in favour of the one the history register names.

Restoration conditions (both required):
* the output port is free — no valid pseudo-circuit and no SA grant is
  using it this cycle, and
* the downstream router is not congested (credits are available), so a
  restored circuit still guarantees credit availability.

A wrong speculation costs nothing: the comparator simply does not match and
the flit arbitrates normally while the speculative circuit is torn down.
"""

from __future__ import annotations

from .pseudo_circuit import PseudoCircuitRegister


class OutputHistory:
    """Per-output-port history register."""

    __slots__ = ("last_input",)

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Initial state: no circuit to this output was ever terminated."""
        self.last_input = -1

    def record_termination(self, in_port: int) -> None:
        self.last_input = in_port


def try_restore(out_port: int, history: OutputHistory,
                pc_registers: list[PseudoCircuitRegister],
                output_is_free: bool, credits_available: bool) -> int | None:
    """Re-establish a speculative pseudo-circuit on ``out_port`` if possible.

    Candidates are the input ports that are free (register invalid) and
    whose stored route still points at ``out_port``. A single candidate is
    restored directly; among several, the history register picks the input
    of the most recently terminated circuit (the paper's conflict-resolution
    rule). Returns the restored input port, or None.
    """
    if not output_is_free or not credits_available:
        return None
    candidates = [i for i, reg in enumerate(pc_registers)
                  if not reg.valid and reg.in_vc >= 0
                  and reg.out_port == out_port]
    if not candidates:
        return None
    if len(candidates) == 1:
        chosen = candidates[0]
    elif history.last_input in candidates:
        chosen = history.last_input
    else:
        return None
    pc_registers[chosen].restore()
    return chosen
