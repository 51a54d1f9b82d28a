"""Flit-conservation and wormhole-ordering monitor.

Three invariants, checked online:

* **Flit conservation** — every injected flit is eventually ejected or
  still in flight; the network can never eject more than was injected, and
  a drained (quiescent) network has ejected exactly what it injected.
* **Buffer occupancy** — for every (router, port, vc), the live buffer
  depth equals writes − reads as seen through the probe events. Keys
  touched in a cycle are re-checked at the next cycle boundary (the dirty
  set); a periodic *deep sweep* every ``deep_every`` executed cycles (and
  at ``finish``) covers keys corrupted without an event.
* **Wormhole ordering** — per (router, in_port, vc), crossbar traversals
  form complete packet sequences: a head flit with index 0 opens a packet,
  body flits follow in consecutive index order, the tail (index size−1)
  closes it, and packets never interleave within a VC.
"""

from __future__ import annotations

from .base import Monitor


class ConservationMonitor(Monitor):
    """Prove flits are neither lost, duplicated nor reordered."""

    name = "conservation"

    def __init__(self, strict: bool = True, deep_every: int = 64):
        super().__init__(strict)
        self.deep_every = deep_every
        self.injected_flits = 0
        self.ejected_flits = 0
        self.injected_packets = 0
        self.ejected_packets = 0
        self.max_in_flight = 0
        self.buffer_checks = 0
        self.deep_sweeps = 0
        # (router, port, vc) -> writes - reads since bind.
        self._occ: dict[tuple[int, int, int], int] = {}
        self._dirty: set[tuple[int, int, int]] = set()
        # (router, port, vc) -> (pid, next flit index) of the open packet.
        self._open: dict[tuple[int, int, int], tuple[int, int]] = {}

    # -- terminal accounting --------------------------------------------------

    def on_inject(self, cycle, terminal, packet):
        self.injected_packets += 1
        self.injected_flits += packet.size
        in_flight = self.injected_flits - self.ejected_flits
        if in_flight > self.max_in_flight:
            self.max_in_flight = in_flight

    def on_eject(self, cycle, terminal, packet):
        self.ejected_packets += 1
        self.ejected_flits += packet.size
        if self.ejected_flits > self.injected_flits:
            self.violation(
                "flit_conservation",
                "more flits ejected than injected",
                cycle=cycle, expected=f"<= {self.injected_flits}",
                actual=self.ejected_flits)

    # -- buffer occupancy -----------------------------------------------------

    def on_buffer_write(self, cycle, router, in_port, vc, flit):
        key = (router, in_port, vc)
        self._occ[key] = self._occ.get(key, 0) + 1
        self._dirty.add(key)

    def on_traverse(self, cycle, router, in_port, vc, out_port, via, read,
                    flit):
        key = (router, in_port, vc)
        if read:
            occ = self._occ.get(key, 0) - 1
            if occ < 0:
                self.violation(
                    "buffer_underflow",
                    "buffer read without a matching write",
                    cycle=cycle, router=router, port=in_port, vc=vc,
                    expected=">= 0", actual=occ)
            self._occ[key] = occ
            self._dirty.add(key)
        self._check_order(cycle, key, flit)

    def _check_order(self, cycle, key, flit):
        open_ = self._open.get(key)
        router, port, vc = key
        pid = flit.packet.pid
        if flit.is_head:
            if open_ is not None:
                self.violation(
                    "flit_order",
                    f"head flit of packet {pid} while packet "
                    f"{open_[0]} is still open on this VC",
                    cycle=cycle, router=router, port=port, vc=vc,
                    expected=f"packet {open_[0]} flit {open_[1]}",
                    actual=f"packet {pid} head")
            if flit.index != 0:
                self.violation(
                    "flit_order", f"head flit of packet {pid} has "
                    f"index {flit.index}",
                    cycle=cycle, router=router, port=port, vc=vc,
                    expected=0, actual=flit.index)
            nxt = (pid, 1)
        elif open_ is None:
            self.violation(
                "flit_order",
                f"body/tail flit of packet {pid} with no open packet",
                cycle=cycle, router=router, port=port, vc=vc,
                expected="an open packet", actual=f"flit {flit.index}")
            nxt = (pid, flit.index + 1)
        elif open_[0] != pid or open_[1] != flit.index:
            self.violation(
                "flit_order",
                "out-of-order flit within the wormhole",
                cycle=cycle, router=router, port=port, vc=vc,
                expected=f"packet {open_[0]} flit {open_[1]}",
                actual=f"packet {pid} flit {flit.index}")
            nxt = (pid, flit.index + 1)
        else:
            nxt = (pid, flit.index + 1)
        if flit.is_tail:
            if flit.index != flit.packet.size - 1:
                self.violation(
                    "flit_order",
                    f"tail of packet {pid} at flit index {flit.index}",
                    cycle=cycle, router=router, port=port, vc=vc,
                    expected=flit.packet.size - 1, actual=flit.index)
            self._open.pop(key, None)
        else:
            self._open[key] = nxt

    # -- cycle-boundary checks ------------------------------------------------

    def on_cycle_start(self, cycle, network):
        dirty = self._dirty
        if dirty:
            for key in dirty:
                self._verify(cycle, key)
            dirty.clear()
        if self.deep_every and cycle % self.deep_every == 0:
            self._deep_sweep(cycle)

    def _verify(self, cycle, key):
        router, port, vc = key
        actual = len(self._network.routers[router]
                     .in_ports[port].vcs[vc].buffer)
        expected = self._occ.get(key, 0)
        self.buffer_checks += 1
        if actual != expected:
            self.violation(
                "buffer_occupancy",
                "buffer depth diverged from writes - reads",
                cycle=cycle, router=router, port=port, vc=vc,
                expected=expected, actual=actual)

    def _deep_sweep(self, cycle):
        self.deep_sweeps += 1
        occ = self._occ
        for router in self._network.routers:
            rid = router.router_id
            for ip in router.in_ports:
                port = ip.port_id
                for vc_obj in ip.vcs:
                    actual = len(vc_obj.buffer)
                    expected = occ.get((rid, port, vc_obj.vc_id), 0)
                    self.buffer_checks += 1
                    if actual != expected:
                        self.violation(
                            "buffer_occupancy",
                            "buffer depth diverged from writes - reads "
                            "(deep sweep)",
                            cycle=cycle, router=rid, port=port,
                            vc=vc_obj.vc_id, expected=expected,
                            actual=actual)

    # -- end of run -----------------------------------------------------------

    def finish(self, network):
        self._deep_sweep(network.cycle)
        stats = network.stats
        if (stats.injected_flits != self.injected_flits
                or stats.ejected_flits != self.ejected_flits):
            self.violation(
                "stats_mismatch",
                "monitor flit counts diverged from NetworkStats",
                cycle=network.cycle,
                expected=(stats.injected_flits, stats.ejected_flits),
                actual=(self.injected_flits, self.ejected_flits))
        if network.quiescent():
            if self.injected_flits != self.ejected_flits:
                self.violation(
                    "flit_conservation",
                    "quiescent network with flits unaccounted for",
                    cycle=network.cycle, expected=self.injected_flits,
                    actual=self.ejected_flits)
            if self._open:
                key, (pid, idx) = next(iter(self._open.items()))
                router, port, vc = key
                self.violation(
                    "flit_order",
                    f"packet {pid} never completed its wormhole "
                    f"(next flit index {idx})",
                    cycle=network.cycle, router=router, port=port, vc=vc,
                    expected="all wormholes closed",
                    actual=f"{len(self._open)} open")

    def snapshot(self) -> dict:
        return {
            "injected_packets": self.injected_packets,
            "ejected_packets": self.ejected_packets,
            "injected_flits": self.injected_flits,
            "ejected_flits": self.ejected_flits,
            "in_flight_flits": self.injected_flits - self.ejected_flits,
            "max_in_flight_flits": self.max_in_flight,
            "buffer_checks": self.buffer_checks,
            "deep_sweeps": self.deep_sweeps,
            "violations": len(self.violations),
        }
