"""Dynamic VC allocation: pick a free downstream VC by buffer availability.

This is the conventional policy: among the free VCs in the packet's class,
prefer the one with the most credits (deepest available buffer); ties break
toward the lowest index, which keeps the policy deterministic.
"""

from __future__ import annotations

from ..network.flit import Packet
from .base import VCAllocationPolicy


class DynamicVCAllocation(VCAllocationPolicy):
    name = "dynamic"

    def allocate(self, ovc_states, packet: Packet, lo: int, hi: int,
                 ejection: bool = False) -> int | None:
        if not 0 <= lo < hi <= len(ovc_states):
            self._check_range(ovc_states, lo, hi)
        best = None
        best_credits = -1
        for vc in range(lo, hi):
            state = ovc_states[vc]
            # state.free, inlined (VA runs once per packet per hop, plus
            # every retry while the class is full).
            if state.owner is None:
                credits = state.credits
                if credits > best_credits:
                    best = vc
                    best_credits = credits
        return best
