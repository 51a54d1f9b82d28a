"""Network interface (NIC) attached to each terminal.

The sender NIC splits packets into flits and injects them serially through
its injection channel, performing injection-side VC allocation against the
router's local input port (paper Section III.A). The receiver NIC
reassembles flits into packets and immediately frees its buffer, returning
credits after the configured delay.

Self-throttling (Section V): with ``mshrs > 0`` a NIC stops starting new
packets while ``mshrs`` of its packets are still in flight, modeling the
4-MSHR per-core limit of the paper's CMP.
"""

from __future__ import annotations

import random
from collections import deque

from ..metrics.stats import NetworkStats
from ..routing.base import RoutingAlgorithm
from ..routing.compiled import compile_routing
from ..vcalloc.base import VCAllocationPolicy
from .config import NetworkConfig
from .credits import credit_error
from .flit import Flit, Packet
from .link import Link
from .ports import OutVC


class InjectEndpoint:
    """Upstream-side state of the router's local input port (the NIC is the
    'upstream router' of the injection channel)."""

    __slots__ = ("ovcs",)

    def __init__(self, num_vcs: int, buffer_depth: int,
                 terminal: int = -1):
        # where = (-1, terminal, vc): NIC-side edge convention for credit
        # error context (mirrors the ejection endpoint's router == -1).
        self.ovcs = [OutVC(buffer_depth, (-1, terminal, v))
                     for v in range(num_vcs)]

    def reset(self) -> None:
        """Initial state of every injection VC (no state of its own)."""
        for ovc in self.ovcs:
            ovc.reset()


class Nic:
    """One terminal's network interface."""

    __slots__ = ("terminal", "config", "routing", "vc_policy", "stats",
                 "rng", "queue", "inject_state", "_sending", "_send_rr",
                 "outstanding", "inject_link", "inject_endpoint",
                 "eject_endpoint", "_eject_credit_due", "_rx_flits",
                 "_eject_q", "on_packet", "ejected", "keep_ejected",
                 "_inject_set", "_eject_set", "_windows", "_probe")

    def __init__(self, terminal: int, config: NetworkConfig,
                 routing: RoutingAlgorithm, vc_policy: VCAllocationPolicy,
                 stats: NetworkStats, rng: random.Random):
        self.terminal = terminal
        self.config = config
        self.routing = routing
        self.vc_policy = vc_policy
        self.stats = stats
        self.rng = rng
        self.inject_state = InjectEndpoint(config.num_vcs,
                                           config.buffer_depth, terminal)
        # Wired by the Network: link + endpoint into the router local port,
        # and the router-side ejection endpoint whose credits we replenish.
        self.inject_link: Link | None = None
        self.inject_endpoint = None
        self.eject_endpoint = None
        # Active-set registries (dicts keyed by terminal id), bound by the
        # Network; a standalone NIC registers into its own, unread.
        self._inject_set: dict = {}
        self._eject_set: dict = {}
        # The compiled routing's VC windows (``routing.compiled``);
        # ``_windows[route_choice][-1]`` is the injection channel's.
        self._windows = compile_routing(routing, routing.topology,
                                        config.num_vcs).windows
        self._reset_own()

    def reset(self) -> None:
        """Initial state: nothing queued, sending, outstanding or
        received; injection credits restored; no upcall, no probe. The
        ``rng`` is re-seeded by its owner (``Network.reset``)."""
        self.inject_state.reset()
        self._reset_own()

    def _reset_own(self) -> None:
        """The registers of this object itself; its parts have their own."""
        self.queue: deque[Packet] = deque()
        # In-progress transmissions, one per injection VC: vc -> [packet,
        # flits, next flit index]. The NIC interleaves them on the single
        # injection channel, one flit per cycle.
        self._sending: dict[int, list] = {}
        self._send_rr = 0
        self.outstanding = 0
        self._eject_credit_due: deque[tuple[int, int]] = deque()
        # Reassembly and delivery upcall (used by the CMP substrate). The
        # ejection queue is a FIFO: its single sender (the router's
        # ejection output port) emits non-decreasing arrival cycles.
        self._rx_flits: dict[int, int] = {}
        self._eject_q: deque[tuple[int, Flit]] = deque()
        self.on_packet = None  # callback(packet, cycle)
        self.ejected: list[Packet] = []
        self.keep_ejected = False
        # Null-object probe: one attribute test per inject/eject when
        # tracing is off (set by Network.bind_probe).
        self._probe = None

    def bind_scheduler(self, inject_set: dict, eject_set: dict) -> None:
        """Attach this NIC to the network's active-set registries."""
        self._inject_set = inject_set
        self._eject_set = eject_set

    # -- sending --------------------------------------------------------------

    def enqueue(self, packet: Packet) -> None:
        """Hand a packet to the NIC (source queuing starts here)."""
        self._inject_set[self.terminal] = self
        self.routing.on_inject(packet, self.rng)
        self.queue.append(packet)

    def tick_inject(self, cycle: int) -> None:
        """Start the head-of-queue packet if a VC is free, then send at most
        one flit (round-robin over the in-progress VCs with credits)."""
        self._start_next_packet(cycle)
        if not self._sending:
            return
        num_vcs = self.config.num_vcs
        for offset in range(num_vcs):
            vc = (self._send_rr + offset) % num_vcs
            entry = self._sending.get(vc)
            if entry is None:
                continue
            ovc = self.inject_state.ovcs[vc]
            count = ovc.credits
            if count == 0:
                continue
            if count < 0:
                raise credit_error(ovc, cycle)
            packet, flits, idx = entry
            flit = flits[idx]
            flit.vc = vc
            ovc.credits = count - 1
            self.inject_link.deliver(flit, self.inject_endpoint, cycle + 1)
            if idx + 1 == len(flits):
                ovc.owner = None
                del self._sending[vc]
            else:
                entry[2] = idx + 1
            self._send_rr = (vc + 1) % num_vcs
            return

    def _start_next_packet(self, cycle: int) -> None:
        if not self.queue:
            return
        if 0 < self.config.mshrs <= self.outstanding:
            return  # self-throttling: all MSHRs busy
        packet = self.queue[0]
        lo, hi = self._windows[packet.route_choice][-1]
        vc = self.vc_policy.allocate(self.inject_state.ovcs, packet, lo, hi)
        if vc is None:
            return
        self.queue.popleft()
        self.inject_state.ovcs[vc].owner = (-1, self.terminal)
        packet.inject_cycle = cycle
        self.stats.record_injection(packet)
        self.outstanding += 1
        self._sending[vc] = [packet, packet.make_flits(), 0]
        probe = self._probe
        if probe is not None:
            probe.on_inject(cycle, self.terminal, packet)

    # -- receiving ------------------------------------------------------------

    def deliver(self, flit: Flit, endpoint, cycle: int) -> None:
        """Sink interface used by the router's ejection output port."""
        self._eject_set[self.terminal] = self
        q = self._eject_q
        if q and cycle < q[-1][0]:
            raise RuntimeError(
                f"NIC {self.terminal}: non-monotonic ejection delivery "
                f"({cycle} after {q[-1][0]})")
        q.append((cycle, flit))

    def tick_eject(self, cycle: int, network) -> None:
        # Return credits whose delay has elapsed.
        due = self._eject_credit_due
        probe = self._probe
        while due and due[0][0] <= cycle:
            _, vc = due.popleft()
            ovc = self.eject_endpoint.ovcs[vc]
            count = ovc.credits
            if count >= ovc.limit:
                raise credit_error(ovc, cycle)
            ovc.credits = count + 1
            if probe is not None:
                # router == -1 marks the NIC ejection side of the edge.
                probe.on_credit_restore(cycle, -1, self.terminal, vc)
        q = self._eject_q
        while q and q[0][0] <= cycle:
            _, flit = q.popleft()
            # The NIC drains instantly; the buffer slot frees right away.
            due.append((cycle + self.config.credit_delay, flit.vc))
            packet = flit.packet
            got = self._rx_flits.get(packet.pid, 0) + 1
            if flit.is_tail:
                if got != packet.size:
                    raise RuntimeError(
                        f"NIC {self.terminal}: tail of {packet} arrived "
                        f"after {got}/{packet.size} flits")
                self._rx_flits.pop(packet.pid, None)
                packet.eject_cycle = cycle
                self.stats.record_ejection(packet)
                network.notify_ejection(packet)
                probe = self._probe
                if probe is not None:
                    probe.on_eject(cycle, self.terminal, packet)
                if self.keep_ejected:
                    self.ejected.append(packet)
                if self.on_packet is not None:
                    self.on_packet(packet, cycle)
            else:
                self._rx_flits[packet.pid] = got

    # -- introspection --------------------------------------------------------

    @property
    def idle(self) -> bool:
        return (not self.queue and not self._sending
                and not self._eject_q)

    def next_eject_cycle(self) -> int:
        """Earliest cycle at which tick_eject has scheduled work."""
        q, due = self._eject_q, self._eject_credit_due
        if q and due:
            return min(q[0][0], due[0][0])
        if q:
            return q[0][0]
        if due:
            return due[0][0]
        raise IndexError("next_eject_cycle() on idle ejection side")
