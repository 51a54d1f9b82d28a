"""Credit-conservation monitor.

For every flow-control edge — router→router channel endpoint, NIC
injection channel, and router→NIC ejection — the upstream credit count
(``OutVC.credits``) must always equal the downstream free-slot count
minus everything in flight toward or from that buffer:

    count == limit − buffered − flits on the link − credits in the return
             channel

evaluated at cycle boundaries (the only instants the phase-ordered update
is settled). Edges touched by an event are re-verified at the next
boundary; a deep sweep every ``deep_every`` executed cycles (and at
``finish``) re-derives the invariant for every edge so corruption that
bypasses the event stream is still caught.
"""

from __future__ import annotations

from .base import Monitor


class _Edge:
    """One (upstream counter, downstream buffer) pair."""

    __slots__ = ("ovc", "vc", "router", "port", "buffer_q", "link", "ep",
                 "channel", "nic")

    def __init__(self, ovc, vc, router, port, buffer_q=None, link=None,
                 ep=None, channel=None, nic=None):
        self.ovc = ovc          # upstream OutVC (credit counter side)
        self.vc = vc
        self.router = router    # downstream router (-1: NIC ejection)
        self.port = port        # downstream input port / terminal id
        self.buffer_q = buffer_q
        self.link = link
        self.ep = ep
        self.channel = channel  # downstream credit-return delay line
        self.nic = nic          # set for ejection edges


class CreditMonitor(Monitor):
    """Prove upstream credit counters mirror downstream buffer space."""

    name = "credits"

    def __init__(self, strict: bool = True, deep_every: int = 64):
        super().__init__(strict)
        self.deep_every = deep_every
        self.edge_checks = 0
        self.deep_sweeps = 0
        self._edges: list[_Edge] = []
        self._by_up: dict[tuple[int, int], list[_Edge]] = {}
        self._by_down: dict[tuple[int, int], list[_Edge]] = {}
        self._eject: dict[int, list[_Edge]] = {}
        self._inject: dict[int, list[_Edge]] = {}
        self._dirty: set[int] = set()
        self._by_id: dict[int, _Edge] = {}

    # -- edge discovery -------------------------------------------------------

    def bind(self, network):
        super().bind(network)
        routers = network.routers
        for router in routers:
            rid = router.router_id
            for out in router.out_ports:
                if not out.endpoints:
                    continue
                up_key = (rid, out.port_id)
                if out.is_ejection:
                    nic = out.sink
                    ep = out.endpoints[0]
                    for vc, ovc in enumerate(ep.ovcs):
                        edge = _Edge(ovc, vc, -1, nic.terminal, nic=nic)
                        self._add(edge, up_key)
                        self._eject.setdefault(nic.terminal,
                                               []).append(edge)
                else:
                    for ep in out.endpoints:
                        ip = routers[ep.router].in_ports[ep.in_port]
                        down_key = (ep.router, ep.in_port)
                        for vc, ovc in enumerate(ep.ovcs):
                            edge = _Edge(
                                ovc, vc, ep.router, ep.in_port,
                                buffer_q=ip.vcs[vc].buffer,
                                link=out.sink, ep=ep,
                                channel=ip.credit_due)
                            self._add(edge, up_key, down_key)
        for nic in network.nics:
            inj = nic.inject_endpoint
            ip = routers[inj.router].in_ports[inj.in_port]
            down_key = (inj.router, inj.in_port)
            for vc, ovc in enumerate(nic.inject_state.ovcs):
                edge = _Edge(ovc, vc, inj.router, inj.in_port,
                             buffer_q=ip.vcs[vc].buffer,
                             link=nic.inject_link, ep=inj,
                             channel=ip.credit_due)
                self._add(edge, None, down_key)
                self._inject.setdefault(nic.terminal, []).append(edge)

    def _add(self, edge, up_key, down_key=None):
        self._edges.append(edge)
        self._by_id[id(edge)] = edge
        if up_key is not None:
            self._by_up.setdefault(up_key, []).append(edge)
        if down_key is not None:
            self._by_down.setdefault(down_key, []).append(edge)

    # -- dirty marking --------------------------------------------------------

    def _mark(self, edges):
        if edges:
            dirty = self._dirty
            for edge in edges:
                dirty.add(id(edge))

    def on_traverse(self, cycle, router, in_port, vc, out_port, via, read,
                    flit):
        self._mark(self._by_down.get((router, in_port)))
        self._mark(self._by_up.get((router, out_port)))

    def on_buffer_write(self, cycle, router, in_port, vc, flit):
        self._mark(self._by_down.get((router, in_port)))

    def on_credit_restore(self, cycle, router, port, vc):
        if router >= 0:
            self._mark(self._by_down.get((router, port)))
        else:
            self._mark(self._eject.get(port))

    def on_eject(self, cycle, terminal, packet):
        self._mark(self._eject.get(terminal))

    def on_inject(self, cycle, terminal, packet):
        self._mark(self._inject.get(terminal))

    # -- verification ---------------------------------------------------------

    def _verify(self, cycle, edge):
        self.edge_checks += 1
        count = edge.ovc.credits
        limit = edge.ovc.limit
        if not 0 <= count <= limit:
            self.violation(
                "credit_range", "credit counter out of range",
                cycle=cycle, router=edge.router, port=edge.port,
                vc=edge.vc, expected=f"0..{limit}", actual=count)
            return
        vc = edge.vc
        if edge.nic is not None:
            # Ejection edge: the NIC's ejection queue is buffer and link in
            # one; pending credits wait in _eject_credit_due.
            occupied = sum(1 for _, f in edge.nic._eject_q if f.vc == vc)
            returning = sum(1 for _, v in edge.nic._eject_credit_due
                            if v == vc)
            in_flight = 0
        else:
            occupied = len(edge.buffer_q)
            ep = edge.ep
            in_flight = 0
            for item in edge.link._q:
                # FIFO links hold (cycle, flit, ep); heap links hold
                # (cycle, seq, flit, ep).
                if item[-1] is ep and item[-2].vc == vc:
                    in_flight += 1
            returning = sum(1 for _, v in edge.channel if v == vc)
        expected = limit - occupied - in_flight - returning
        if count != expected:
            self.violation(
                "credit_conservation",
                "upstream credit counter out of sync with downstream "
                "free slots",
                cycle=cycle, router=edge.router, port=edge.port, vc=vc,
                expected=expected, actual=count)

    def on_cycle_start(self, cycle, network):
        dirty = self._dirty
        if dirty:
            by_id = self._by_id
            for key in dirty:
                self._verify(cycle, by_id[key])
            dirty.clear()
        if self.deep_every and cycle % self.deep_every == 0:
            self._deep_sweep(cycle)

    def _deep_sweep(self, cycle):
        self.deep_sweeps += 1
        for edge in self._edges:
            self._verify(cycle, edge)

    def finish(self, network):
        self._deep_sweep(network.cycle)

    def snapshot(self) -> dict:
        return {
            "edges": len(self._edges),
            "edge_checks": self.edge_checks,
            "deep_sweeps": self.deep_sweeps,
            "violations": len(self.violations),
        }
