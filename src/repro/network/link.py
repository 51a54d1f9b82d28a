"""Channel delivery queues.

A ``Link`` carries flits launched by a router output port to the input port
of the endpoint chosen at switch traversal. Arrival cycles are computed by
the sender (they depend on whether the flit went through SA or bypassed);
the link is a time-ordered queue that hands each flit to the destination
router at its arrival cycle.

Point-to-point channels (one endpoint) emit non-decreasing arrival cycles:
an output port launches at most one flit per cycle and the bypass/SA
arrival deltas differ by at most the cycle gap between launches, so the
Network constructs those links with ``fifo=True`` and the queue degenerates
to a plain deque (no heap discipline per flit). Multidrop channels (MECS)
mix per-endpoint latencies and keep the default heap. FIFO links verify
the monotonicity assumption on every ``deliver`` and raise if a sender
violates it.

When the owning :class:`~repro.network.simulator.Network` runs in
active-set mode it binds each link to a live-link registry (a dict keyed by
link id); ``deliver`` then registers the link so the simulator only ticks
links that actually carry flits.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

from .flit import Flit
from .ports import OutEndpoint

_seq = itertools.count()


class Link:
    """Time-ordered in-flight flit queue for one channel."""

    __slots__ = ("_q", "link_id", "_live", "_fifo", "_probe")

    def __init__(self, fifo: bool = False):
        # fifo=True: deque of (cycle, flit, endpoint), send order == arrival
        # order. fifo=False: heap of (cycle, seq, flit, endpoint).
        self._fifo = fifo
        # Wired by the Network in active-set mode.
        self.link_id = -1
        self._live: dict | None = None
        self.reset()

    def reset(self) -> None:
        """Initial state: nothing in flight, no probe."""
        self._q: deque | list = deque() if self._fifo else []
        # Null-object probe: one attribute test on the delivery path when
        # tracing is off (set by Network.bind_probe).
        self._probe = None

    def bind(self, link_id: int, live: dict | None) -> None:
        """Attach this link to the network's live-link registry."""
        self.link_id = link_id
        self._live = live

    def deliver(self, flit: Flit, endpoint: OutEndpoint, cycle: int) -> None:
        """Schedule ``flit`` to arrive at ``endpoint`` at ``cycle``."""
        live = self._live
        if live is not None:
            live[self.link_id] = self
        q = self._q
        if self._fifo:
            if q and cycle < q[-1][0]:
                raise RuntimeError(
                    f"non-monotonic delivery on FIFO link {self.link_id}: "
                    f"{cycle} after {q[-1][0]}")
            q.append((cycle, flit, endpoint))
        else:
            heapq.heappush(q, (cycle, next(_seq), flit, endpoint))

    def tick(self, now: int, routers) -> None:
        """Hand over every flit whose arrival cycle has come."""
        q = self._q
        probe = self._probe
        if self._fifo:
            while q and q[0][0] <= now:
                _, flit, ep = q.popleft()
                routers[ep.router].accept_flit(ep.in_port, flit)
                if probe is not None:
                    probe.on_link(now, self.link_id, ep.router, ep.in_port,
                                  flit)
        else:
            while q and q[0][0] <= now:
                _, _, flit, ep = heapq.heappop(q)
                routers[ep.router].accept_flit(ep.in_port, flit)
                if probe is not None:
                    probe.on_link(now, self.link_id, ep.router, ep.in_port,
                                  flit)

    def next_arrival(self) -> int:
        """Arrival cycle of the earliest in-flight flit."""
        if not self._q:
            raise IndexError("next_arrival() on empty link")
        return self._q[0][0]

    @property
    def in_flight(self) -> int:
        return len(self._q)
