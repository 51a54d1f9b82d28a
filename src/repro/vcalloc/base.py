"""Virtual-channel allocation policies (paper Section V).

The VC allocator assigns a packet one VC at the downstream router's input
port. ``allocate`` receives the downstream VC states (objects exposing
``free`` and ``credits``), the packet, and the packet's permitted VC
class range ``[lo, hi)``; it returns the chosen VC index or None when no
allocation is possible this cycle.
"""

from __future__ import annotations

from ..network.flit import Packet


class VCAllocationPolicy:
    name = "abstract"

    def allocate(self, ovc_states, packet: Packet, lo: int, hi: int,
                 ejection: bool = False) -> int | None:
        """Pick a VC for ``packet``; ``ejection`` marks the NIC-bound port
        (its VC choice cannot influence crossbar reuse at any router)."""
        raise NotImplementedError

    @staticmethod
    def _check_range(ovc_states, lo: int, hi: int) -> None:
        if not 0 <= lo < hi <= len(ovc_states):
            raise ValueError(f"bad VC class range [{lo},{hi}) for "
                             f"{len(ovc_states)} VCs")
