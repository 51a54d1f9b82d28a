"""Network construction and the cycle-accurate simulation loop.

``Network`` assembles routers, channels, links and NICs for a topology and
steps them in a fixed phase order each cycle:

1. credit returns reach upstream credit counters,
2. receiver NICs consume flits whose ejection completed,
3. links deliver flits arriving this cycle into router input stages,
4. every router runs its VA/SA/pseudo-circuit pipeline step,
5. sender NICs inject at most one flit each.

Traffic sources drive the network either through :meth:`Network.run` (the
``traffic`` object's ``tick`` is called once per cycle) or by calling
:meth:`Network.inject` directly (closed-loop CMP substrate).

Active-set stepping
-------------------

Routers, NICs and links register into per-phase active sets when they
gain work (a staged arrival, a buffered flit, an in-flight credit, a
queued packet, a scheduled ejection) and are deregistered once drained,
so each cycle only touches components that can actually make progress.
Members are visited in ascending component-id order, so a cycle is the
same as one that visits every component in index order; the tests keep
that exhaustive loop as their oracle (``tests/network/exhaustive.py``)
and the equivalence tests beside it compare the two across
topologies, router modes, traffic patterns and trace replay.

On top of the active sets, :meth:`run`, :meth:`drain` and
:meth:`fast_forward` skip quiescent stretches: when no router or sender
NIC can act on every cycle, the remaining work is purely time-scheduled
(link arrivals, credit returns, ejection completions, the next traffic
injection), and the clock jumps straight to the earliest such event.

Wiring and state
----------------

Construction does two things: it *wires* (routers, ports, VCs, channels,
endpoints, NICs, routing tables, active-set registries — fixed by the
topology, the ``NetworkConfig`` and the policies) and it puts every
component in its *initial state* (empty buffers, idle VCs, full credit
counters, arbiter pointers at 0, no pseudo-circuit, cycle 0). Each
component states its initial state once, in ``reset()``, which its
``__init__`` runs through (a component built of parts constructs them,
born reset, and then runs the lines of its own registers);
:meth:`Network.reset` walks the wired network back to that state, so one
network can serve many runs, each bit-identical to a run on a new one.
"""

from __future__ import annotations

import math
import random

from ..metrics.stats import NetworkStats
from ..routing import RoutingAlgorithm, compile_routing, make_routing
from ..topology.base import Topology
from ..vcalloc import VCAllocationPolicy, make_vc_policy
from .config import NetworkConfig
from .flit import Packet
from .link import Link
from .nic import Nic
from .ports import OutEndpoint, OutputPort
from .router import Router


class Network:
    """A complete simulated on-chip network."""

    def __init__(self, topology: Topology, config: NetworkConfig,
                 routing: RoutingAlgorithm | str = "xy",
                 vc_policy: VCAllocationPolicy | str = "dynamic",
                 seed: int = 1):
        self.topology = topology
        self.config = config
        if isinstance(routing, str):
            routing = make_routing(routing, topology)
        if isinstance(vc_policy, str):
            vc_policy = make_vc_policy(vc_policy)
        self.routing = routing
        self.vc_policy = vc_policy
        self.stats = NetworkStats()
        self.rng = random.Random(seed)
        # Active sets, keyed by component id so members can be visited in
        # ascending id order.
        self._work_routers: dict[int, Router] = {}
        self._credit_routers: dict[int, Router] = {}
        self._live_links: dict[int, Link] = {}
        self._inject_nics: dict[int, Nic] = {}
        self._eject_nics: dict[int, Nic] = {}
        #: The routing's tables (``routing.compiled``), which every router
        #: and NIC reads, shared read-only by every network built on the
        #: same routing instance.
        self.compiled = compile_routing(routing, topology, config.num_vcs)
        self.routers = [
            Router(r, topology.num_inports(r), topology.num_outports(r),
                   config, routing, vc_policy, self.stats)
            for r in range(topology.num_routers)]
        self.links: list[Link] = []
        self.nics: list[Nic] = []
        self._build_channels()
        self._build_nics()
        for router in self.routers:
            router.bind_scheduler(self._work_routers, self._credit_routers)
        for nic in self.nics:
            nic.bind_scheduler(self._inject_nics, self._eject_nics)
        for link_id, link in enumerate(self.links):
            link.bind(link_id, self._live_links)
        self._reset_own()

    def reset(self, seed: int = 1) -> None:
        """Back to the state of a freshly built network seeded ``seed``.

        Everything ``__init__`` wired stays (topology, routing tables,
        ports, channels, active-set registries); everything a run changes
        goes back to its initial value through the components' own
        ``reset()``, the random streams are re-seeded exactly as
        construction seeds them, and a new ``NetworkStats`` replaces the
        old one (which a caller may still hold). Any bound probe is
        detached. A run on a reset network is bit-identical to the same
        run on a new one.
        """
        stats = self.stats = NetworkStats()
        self.rng.seed(seed)
        for router in self.routers:
            router.reset()
            router.stats = stats
        for link in self.links:
            link.reset()
        for nic in self.nics:
            nic.reset()
            nic.stats = stats
            nic.rng.seed(self.rng.getrandbits(32))
        self._reset_own()

    def _reset_own(self) -> None:
        """The registers of this object itself; its parts have their own."""
        self.cycle = 0
        # Instrumentation null object: None unless bind_probe attaches one
        # (see repro.instrument); the step loops pay one attribute test.
        self.probe = None
        self._work_routers.clear()
        self._credit_routers.clear()
        self._live_links.clear()
        self._inject_nics.clear()
        self._eject_nics.clear()

    def bind_probe(self, probe) -> None:
        """Attach an instrumentation probe (see :mod:`repro.instrument`) to
        the network and every component; call before running."""
        self.probe = probe
        for router in self.routers:
            router._probe = probe
        for link in self.links:
            link._probe = probe
        for nic in self.nics:
            nic._probe = probe
        probe.bind(self)

    def detach(self) -> None:
        """Unbind the probe from the network and every component, as
        ``reset`` does."""
        self.probe = None
        for part in (*self.routers, *self.links, *self.nics):
            part._probe = None

    # -- construction ---------------------------------------------------------

    def _build_channels(self) -> None:
        cfg = self.config
        for channel in self.topology.channels():
            # Point-to-point channels deliver in send order (see link.py);
            # multidrop channels mix endpoint latencies and need the heap.
            link = Link(fifo=len(channel.endpoints) == 1)
            self.links.append(link)
            endpoints = [
                OutEndpoint(ep.router, ep.in_port, ep.latency,
                            cfg.num_vcs, cfg.buffer_depth)
                for ep in channel.endpoints]
            port = OutputPort(channel.src_port, endpoints, sink=link)
            self.routers[channel.src_router].attach_output(
                channel.src_port, port)
            for endpoint in endpoints:
                in_port = self.routers[endpoint.router].in_ports[
                    endpoint.in_port]
                if in_port.upstream is not None:
                    raise ValueError(
                        f"input port {endpoint.in_port} of router "
                        f"{endpoint.router} wired twice")
                in_port.upstream = endpoint

    def _build_nics(self) -> None:
        cfg = self.config
        topo = self.topology
        for terminal in range(topo.num_terminals):
            # The topology lookups validate their argument on every call;
            # resolve each of them once per terminal.
            router = self.routers[topo.terminal_router(terminal)]
            eject_port = topo.ejection_port(terminal)
            inject_port = topo.injection_port(terminal)
            nic = Nic(terminal, cfg, self.routing, self.vc_policy,
                      self.stats, random.Random(self.rng.getrandbits(32)))
            # Ejection: router output port -> NIC.
            eject_ep = OutEndpoint(-1, terminal, 1, cfg.num_vcs,
                                   cfg.eject_buffer_depth)
            eject_out = OutputPort(eject_port, [eject_ep],
                                   sink=nic, is_ejection=True)
            router.attach_output(eject_port, eject_out)
            nic.eject_endpoint = eject_ep
            # Injection: NIC -> router local input port (one sender, one
            # cycle of latency: always FIFO).
            inject_link = Link(fifo=True)
            self.links.append(inject_link)
            nic.inject_link = inject_link
            nic.inject_endpoint = OutEndpoint(
                router.router_id, inject_port, 1, 1, 1)
            router.in_ports[inject_port].upstream = nic.inject_state
            self.nics.append(nic)

    # -- driving --------------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Hand a packet to its source NIC."""
        self.nics[packet.src].enqueue(packet)

    def attach_delivery(self, terminal: int, callback) -> None:
        """Call ``callback(packet, cycle)`` with each packet delivered at
        ``terminal`` (``Nic.on_packet``): when its NIC ejects it, between
        the cycle's ejections and its injections, so a packet the
        callback injects may start in that cycle. The array cores have
        the same method."""
        self.nics[terminal].on_packet = callback

    def notify_ejection(self, packet: Packet) -> None:
        self.nics[packet.src].outstanding -= 1

    def step(self) -> None:
        """Advance the whole network by one cycle, touching only the
        components that registered work.

        Each phase snapshots its set in ascending id order and
        deregisters members that drained. Registrations made by a phase
        for a *later* phase of the same cycle (a link ticking flits into
        a router) are picked up because each phase snapshots at its own
        start.
        """
        cycle = self.cycle
        probe = self.probe
        if probe is not None:
            probe.on_cycle_start(cycle, self)
        routers = self.routers
        nics = self.nics
        credit_set = self._credit_routers
        if credit_set:
            for rid in sorted(credit_set):
                router = routers[rid]
                router.deliver_credits(cycle)
                if router._pending_credits == 0:
                    del credit_set[rid]
        eject_set = self._eject_nics
        if eject_set:
            for nid in sorted(eject_set):
                nic = nics[nid]
                nic.tick_eject(cycle, self)
                if not (nic._eject_q or nic._eject_credit_due):
                    del eject_set[nid]
        work_set = self._work_routers
        live_links = self._live_links
        if live_links:
            links = self.links
            for lid in sorted(live_links):
                link = links[lid]
                q = link._q
                if link._fifo and link._probe is None:
                    # Link.tick + Router.accept_flit, in place.
                    while q and q[0][0] <= cycle:
                        _, flit, ep = q.popleft()
                        router = routers[ep.router]
                        router._arrivals.append((ep.in_port, flit))
                        work_set[ep.router] = router
                else:
                    link.tick(cycle, routers)
                if not q:
                    del live_links[lid]
        if work_set:
            for rid in sorted(work_set):
                router = routers[rid]
                router.step(cycle)
                if not router._arrivals and router._buffered_flits == 0:
                    del work_set[rid]
        inject_set = self._inject_nics
        if inject_set:
            for nid in sorted(inject_set):
                nic = nics[nid]
                nic.tick_inject(cycle)
                if not (nic.queue or nic._sending):
                    del inject_set[nid]
        self.cycle = cycle + 1

    # -- quiescence fast-forward ----------------------------------------------

    def _next_event_cycle(self) -> float:
        """Earliest cycle at which any time-scheduled event fires."""
        nxt = math.inf
        links = self.links
        for lid in self._live_links:
            cycle = links[lid].next_arrival()
            if cycle < nxt:
                nxt = cycle
        routers = self.routers
        for rid in self._credit_routers:
            cycle = routers[rid].next_credit_cycle()
            if cycle < nxt:
                nxt = cycle
        nics = self.nics
        for nid in self._eject_nics:
            cycle = nics[nid].next_eject_cycle()
            if cycle < nxt:
                nxt = cycle
        return nxt

    def fast_forward(self, bound: int,
                     traffic_next: int | None = None) -> None:
        """Jump the clock to the next scheduled event, capped at ``bound``.

        A no-op while any router or sender NIC has per-cycle work;
        otherwise everything left (link arrivals, credit returns,
        ejections, and ``traffic_next``, the next cycle an external
        driver such as trace replay needs control at) fires at a known
        future cycle, so the skipped cycles are provably no-ops.
        """
        if self._work_routers or self._inject_nics:
            return
        nxt = self._next_event_cycle()
        if traffic_next is not None and traffic_next < nxt:
            nxt = traffic_next
        target = bound if nxt == math.inf else min(bound, int(nxt))
        if target > self.cycle:
            self.cycle = target

    def run(self, cycles: int, traffic=None) -> None:
        """Run for ``cycles`` cycles, ticking ``traffic`` once per cycle.

        Quiescent stretches are fast-forwarded. With a ``traffic``
        object this is only done if it exposes
        ``next_injection_cycle(cycle)`` — trace replay
        (``TraceReplayTraffic``) and Bernoulli sources
        (``SyntheticTraffic``, which pre-draws outcomes in tick order
        so skipping is bit-identical to stepping).
        """
        end = self.cycle + cycles
        next_injection = (getattr(traffic, "next_injection_cycle", None)
                          if traffic is not None else None)
        while self.cycle < end:
            if traffic is not None:
                traffic.tick(self, self.cycle)
            self.step()
            if traffic is None:
                self.fast_forward(end)
            elif next_injection is not None:
                self.fast_forward(end, next_injection(self.cycle))

    def drain(self, max_cycles: int = 1_000_000) -> None:
        """Run without new traffic until every packet has been delivered."""
        deadline = self.cycle + max_cycles
        while not self.quiescent():
            if self.cycle >= deadline:
                raise RuntimeError(
                    f"network failed to drain within {max_cycles} cycles "
                    f"({self.in_flight_packets()} packets left)")
            self.step()
            if not self.quiescent():
                self.fast_forward(deadline)

    # -- queries --------------------------------------------------------------

    def in_flight_packets(self) -> int:
        nics = self.nics
        queued = sum(len(nics[nid].queue) for nid in self._inject_nics)
        return queued + (self.stats.injected_packets
                         - self.stats.ejected_packets)

    def quiescent(self) -> bool:
        """No NIC has a packet to send or a flit to eject, and every
        injected packet was ejected; pending credit returns do not
        count."""
        if self._inject_nics:
            return False
        nics = self.nics
        if any(nics[nid]._eject_q for nid in self._eject_nics):
            return False
        stats = self.stats
        return stats.injected_packets == stats.ejected_packets

    def check_invariants(self) -> None:
        for router in self.routers:
            router.check_invariants()

