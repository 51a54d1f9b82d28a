"""The CMP's per-cycle loop with nothing skipped: the oracle for
``CmpSystem.tick``.

Every cycle every core acts, then every bank, whatever state each is
in: a stalled core retries its access (straight to the MSHR file, as
``Core._retry`` does) and, stalled still, counts the cycle and does
nothing else; a core that is not stalled draws once whether it accesses
memory; a bank sends whatever of its delayed responses is due, if
anything is. ``CmpSystem.tick`` calls nothing for a core whose retry
cannot succeed yet or a bank with nothing due; a ``ReferenceCmpSystem``
run must read exactly as a ``CmpSystem`` run does
(``test_cmp_stepper.py``).
"""

from repro.cmp.system import CmpSystem


def core_tick(core, system, cycle: int) -> None:
    """One core's cycle, stepped whatever its state."""
    if core._stalled is not None:
        core._retry(system, cycle)
        if core._stalled is not None:
            core.stall_cycles += 1
            return
    if core.rng.random() < core.stream.profile.access_rate:
        block, is_write = core.stream.next_access()
        core._issue(system, cycle, block, is_write)


class ReferenceCmpSystem(CmpSystem):
    """A ``CmpSystem`` whose every core and bank acts every cycle."""

    def tick(self, network, cycle: int) -> None:
        for core in self.cores:
            core_tick(core, self, cycle)
        for bank in self.banks:
            bank.tick(self, cycle)
