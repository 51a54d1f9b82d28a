"""Pipelined virtual-channel router with the pseudo-circuit schemes.

The baseline follows the state-of-the-art speculative two-stage organization
(Peh & Dally, HPCA 2001) the paper uses as its starting point: buffer write
(BW), then VA and SA in one cycle (speculation modeled as VA resolving just
before SA within the cycle), then switch traversal (ST), then link traversal
(LT) — four cycles per hop for a head flit at zero load.

Pseudo-circuit extensions hook into the SA stage:

* a flit matching its input port's valid pseudo-circuit skips SA and
  traverses in the cycle it would have arbitrated (hop = 3 cycles);
* with buffer bypassing it can traverse in its arrival cycle (hop = 2);
* speculation re-establishes circuits on freed output ports.

Cycle-internal ordering of ``step``:

1. VA for head flits at the front of their VCs,
2. pseudo-circuit candidate selection (+ route-mismatch / credit
   terminations),
3. SA request collection from the remaining VCs,
4. bypass of unblocked candidates (blocked ones fall back to SA requests
   this same cycle, exactly the paper's "no additional penalty" rule),
5. arrival processing: buffer bypass or buffer write,
6. separable input-first switch allocation; grants traverse next cycle,
7. pseudo-circuit credit terminations and speculative restoration.

Hot-path representation
-----------------------

Buffer occupancy, SA requests, claimed crossbar ports and pending credit
ports are all integer bitmasks: occupancy is one input-port mask plus one
VC mask per input, visited lowest-bit-first (``mask & -mask``), which is
exactly the ascending (port, VC) order the previous set-based scans sorted
into — so no per-cycle ``sorted`` calls and no candidate list allocation,
while staying bit-identical. When the network compiled its routing
algorithm (``routing.compiled``), route computation is a single tuple index
per head flit instead of the dynamic ``route()`` call chain.
"""

from __future__ import annotations

from ..core.pseudo_circuit import Termination
from ..core.violation import InvariantViolation
from ..metrics.stats import NetworkStats
from ..routing.base import RoutingAlgorithm
from ..vcalloc.base import VCAllocationPolicy
from .arbiters import make_arbiter
from .config import NetworkConfig
from .flit import Flit
from .ports import InputPort, OutputPort
from .vc import VCState, VirtualChannel


class ProtocolError(RuntimeError):
    """A flow-control or wormhole invariant was violated."""


class Router:
    """One router; ports are wired by the Network at build time."""

    __slots__ = ("router_id", "config", "routing", "vc_policy", "stats",
                 "in_ports", "out_ports", "_in_arbs", "_out_arbs",
                 "_arrivals", "_buffered_flits",
                 "_occ_in_mask", "_occ_vc_masks", "_req_vc_masks",
                 "_in_full_mask",
                 "_route_table", "_vc_ranges",
                 "_pc_enabled", "_pc_speculation", "_pc_bypass",
                 "_pending_credits", "_credit_mask", "_registers",
                 "_work_set", "_credit_set", "_probe")

    def __init__(self, router_id: int, num_inports: int, num_outports: int,
                 config: NetworkConfig, routing: RoutingAlgorithm,
                 vc_policy: VCAllocationPolicy, stats: NetworkStats):
        self.router_id = router_id
        self.config = config
        self.routing = routing
        self.vc_policy = vc_policy
        self.stats = stats
        self.in_ports = [
            InputPort(p, config.num_vcs, config.buffer_depth,
                      config.credit_delay)
            for p in range(num_inports)]
        # Output ports are replaced by the Network once channels exist.
        self.out_ports: list[OutputPort] = [
            OutputPort(p, []) for p in range(num_outports)]
        self._in_arbs = [make_arbiter(config.arbiter_kind, config.num_vcs)
                         for _ in range(num_inports)]
        self._out_arbs = [make_arbiter(config.arbiter_kind, num_inports)
                          for _ in range(num_outports)]
        self._in_full_mask = (1 << num_inports) - 1
        # Compiled routing (bound by the Network when the algorithm is
        # tabulable): per-choice destination tables and VC ranges.
        self._route_table = None
        self._vc_ranges = None
        # The per-input pseudo-circuit registers never change identity
        # after construction; speculation scans this list every step.
        self._registers = [ip.pc for ip in self.in_ports]
        # Scheme flags, flattened out of the frozen config (step() reads
        # them every cycle for every active router).
        self._pc_enabled = config.pseudo.enabled
        self._pc_speculation = config.pseudo.speculation
        self._pc_bypass = config.pseudo.buffer_bypass
        # Active-set registries (dicts keyed by router id), bound by the
        # Network when it runs in active-set mode; None when standalone.
        self._work_set: dict | None = None
        self._credit_set: dict | None = None
        self._reset_own()

    def reset(self) -> None:
        """Initial state of the router and of everything wired into it:
        ports, arbiters, occupancy and credit bookkeeping; no probe."""
        for ip in self.in_ports:
            ip.reset()
        for out in self.out_ports:
            out.reset()
        for arb in self._in_arbs:
            arb.reset()
        for arb in self._out_arbs:
            arb.reset()
        self._reset_own()

    def _reset_own(self) -> None:
        """The registers of this object itself; its parts have their own."""
        num_inports = len(self.in_ports)
        self._arrivals: list[tuple[int, Flit]] = []
        self._buffered_flits = 0
        # Buffer occupancy as bitmasks: bit i of _occ_in_mask marks an input
        # port with at least one occupied VC, _occ_vc_masks[i] marks which.
        self._occ_in_mask = 0
        self._occ_vc_masks = [0] * num_inports
        # Per-input SA request VC masks, reused across cycles (reset after
        # each allocation so idle cycles never touch them).
        self._req_vc_masks = [0] * num_inports
        # In-flight credit returns across all input ports (drives the
        # credit-delivery active set) and which ports hold them (bitmask).
        self._pending_credits = 0
        self._credit_mask = 0
        # Instrumentation probe (see ``repro.instrument``), set by
        # Network.bind_probe; None (the null object) when tracing is off,
        # so every emission site costs one attribute test.
        self._probe = None

    # -- wiring (used by Network) ---------------------------------------------

    def attach_output(self, port: int, output: OutputPort) -> None:
        self.out_ports[port] = output

    def bind_scheduler(self, work_set: dict, credit_set: dict) -> None:
        """Attach this router to the network's active-set registries."""
        self._work_set = work_set
        self._credit_set = credit_set

    def bind_route_table(self, table, vc_ranges) -> None:
        """Attach this router's compiled routing table (see
        ``routing.compiled``): ``table[route_choice][dst]`` yields
        ``(out_port, drop, vc_lo, vc_hi)``."""
        self._route_table = table
        self._vc_ranges = vc_ranges

    # -- per-cycle entry points -----------------------------------------------

    def accept_flit(self, in_port: int, flit: Flit) -> None:
        """Stage a flit delivered by an upstream channel this cycle."""
        work = self._work_set
        if work is not None:
            work[self.router_id] = self
        self._arrivals.append((in_port, flit))

    def deliver_credits(self, cycle: int) -> None:
        if self._pending_credits == 0:
            return
        delivered = 0
        ports = self.in_ports
        mask = self._credit_mask
        probe = self._probe
        router_id = self.router_id
        m = mask
        try:
            while m:
                low = m & -m
                m ^= low
                i = low.bit_length() - 1
                ip = ports[i]
                # Inlined InputPort.deliver_credits / CreditChannel.deliver:
                # walk the due prefix of the delay line directly.
                q = ip.credit_channel._inflight
                upstream = ip.upstream
                while q and q[0][0] <= cycle:
                    vc = q.popleft()[1]
                    upstream.ovcs[vc].credits.restore()
                    delivered += 1
                    if probe is not None:
                        probe.on_credit_restore(cycle, router_id, i, vc)
                if not q:
                    mask ^= low
        except InvariantViolation as err:
            if err.cycle is None:
                err.cycle = cycle
            raise
        self._credit_mask = mask
        self._pending_credits -= delivered

    def next_credit_cycle(self) -> int:
        """Earliest due cycle among the in-flight credit returns."""
        ports = self.in_ports
        nxt = None
        m = self._credit_mask
        while m:
            low = m & -m
            m ^= low
            due = ports[low.bit_length() - 1].credit_channel.next_due()
            if nxt is None or due < nxt:
                nxt = due
        if nxt is None:
            raise ValueError("next_credit_cycle() with no pending credits")
        return nxt

    def step(self, cycle: int) -> None:
        if not self._arrivals and self._buffered_flits == 0:
            return  # idle router: nothing can happen this cycle
        # Hoist per-cycle attribute lookups out of the phase loops.
        in_ports = self.in_ports
        out_ports = self.out_ports
        pc_enabled = self._pc_enabled
        self._va_phase(cycle)
        if pc_enabled:
            candidates = self._pc_candidates(cycle)
        else:
            candidates = {}
        order, vc_masks, req_in_mask, req_out_mask = \
            self._collect_requests(cycle, candidates)
        # The claimed masks are only consulted by the bypass paths below;
        # without pseudo-circuits they are never read.
        claimed_in = req_in_mask
        claimed_out = req_out_mask
        # Bypass unblocked pseudo-circuit candidates; blocked ones join SA.
        # _pc_candidates fills the dict in ascending input-port order, so
        # plain insertion-order iteration already matches the sorted scan.
        for i, vc in candidates.items():
            out = out_ports[vc.out_port]
            in_busy = in_ports[i].st_busy_cycle == cycle
            out_busy = out.st_busy_cycle == cycle
            if (claimed_in >> i & 1 or claimed_out >> vc.out_port & 1
                    or in_busy != out_busy):
                if vc_masks[i] == 0:
                    order.append(i)
                vc_masks[i] |= 1 << vc.vc_id
                claimed_in |= 1 << i
                claimed_out |= 1 << vc.out_port
            elif in_busy:
                # Both crossbar ports are occupied by the previous flit of
                # this same circuit (anything else would have re-established
                # or terminated the register): the stream keeps flowing
                # through the held connection, one flit per cycle, without
                # arbitration — reuse at pipeline-full throughput.
                self._traverse(cycle, i, vc, via="pc", streamed=True)
            else:
                self._traverse(cycle, i, vc, via="pc")
        self._process_arrivals(cycle, claimed_in, claimed_out)
        grants = self._allocate_switch(order, vc_masks)
        for i in order:
            vc_masks[i] = 0
        for i, vc in grants:
            self._traverse(cycle, i, vc, via="sa")
        if pc_enabled:
            self._pc_maintenance(cycle)

    # -- VA stage -------------------------------------------------------------

    def _va_phase(self, cycle: int) -> None:
        occ_in = self._occ_in_mask
        if not occ_in:
            return
        ports = self.in_ports
        occ_vc_masks = self._occ_vc_masks
        num = len(ports)
        router_id = self.router_id
        table = self._route_table
        route = self.routing.route
        va, active = VCState.VA, VCState.ACTIVE
        # Visit only VCs that hold flits, rotating the port service order
        # for fairness (same order the full port-rotation x VC scan would
        # reach them): rotate the occupancy mask so the start port lands on
        # bit 0, then peel ascending bits.
        start = cycle % num
        if start:
            rot = ((occ_in >> start) | (occ_in << (num - start))) \
                & self._in_full_mask
        else:
            rot = occ_in
        while rot:
            low = rot & -rot
            rot ^= low
            i = low.bit_length() - 1 + start
            if i >= num:
                i -= num
            ip = ports[i]
            vcs = ip.vcs
            vm = occ_vc_masks[i]
            while vm:
                lowv = vm & -vm
                vm ^= lowv
                vc = vcs[lowv.bit_length() - 1]
                state = vc.state
                if state == active:
                    continue  # VA already done for this packet
                front = vc.buffer._q[0]
                if front.ready_cycle > cycle:
                    continue
                if state != va:  # IDLE: route the new head
                    if not front.is_head:
                        raise ProtocolError(
                            f"router {router_id}: body flit at the "
                            f"front of idle VC {vc.vc_id}: {front}")
                    packet = front.packet
                    if table is not None:
                        out_port, drop, _, _ = \
                            table[packet.route_choice][packet.dst]
                    else:
                        out_port, drop = route(router_id, packet)
                    vc.start_packet(out_port, drop)
                self._try_va(cycle, ip, vc, front)

    def _try_va(self, cycle: int, ip: InputPort, vc: VirtualChannel,
                head: Flit) -> bool:
        out = self.out_ports[vc.out_port]
        endpoint = out.endpoints[vc.out_ep]
        vc_ranges = self._vc_ranges
        if vc_ranges is not None:
            lo, hi = vc_ranges[head.packet.route_choice]
        else:
            lo, hi = self.routing.vc_limits(head.packet, self.config.num_vcs,
                                            vc.out_port)
        ovc = self.vc_policy.allocate(endpoint.ovcs, head.packet, lo, hi,
                                      ejection=out.is_ejection)
        if ovc is None:
            return False
        ovc_state = endpoint.ovcs[ovc]
        ovc_state.owner = (ip.port_id, vc.vc_id)
        vc.grant_out_vc(ovc)
        vc.out_ep_obj = endpoint
        vc.out_ovc_obj = ovc_state
        self.stats.va_allocations += 1
        probe = self._probe
        if probe is not None:
            probe.on_va_grant(cycle, self.router_id, ip.port_id, vc.vc_id,
                              vc.out_port, ovc, head)
        return True

    # -- pseudo-circuit candidates --------------------------------------------

    def _pc_candidates(self, cycle: int) -> dict[int, VirtualChannel]:
        """Input ports whose circuit's VC has a matching, ready front flit."""
        candidates: dict[int, VirtualChannel] = {}
        occ_vc_masks = self._occ_vc_masks
        active = VCState.ACTIVE
        for i, ip in enumerate(self.in_ports):
            reg = ip.pc
            if not reg.valid:
                continue
            in_vc = reg.in_vc
            if not occ_vc_masks[i] >> in_vc & 1:
                continue
            vc = ip.vcs[in_vc]
            front = vc.buffer._q[0]
            if front.ready_cycle > cycle:
                continue
            if front.is_head:
                # Route is known (the VA phase ran first this cycle).
                if vc.out_port != reg.out_port:
                    self._terminate_pc(cycle, i, Termination.ROUTE_MISMATCH)
                    continue
                if vc.state != active:
                    continue  # header still waiting for an output VC
            elif vc.state != active:
                raise ProtocolError(
                    f"router {self.router_id}: body flit on inactive VC")
            if vc.out_ovc_obj.credits.count == 0:
                self._terminate_pc(cycle, i, Termination.NO_CREDIT)
                continue
            candidates[i] = vc
        return candidates

    # -- SA stage -------------------------------------------------------------

    def _collect_requests(self, cycle: int,
                          candidates: dict[int, VirtualChannel]
                          ) -> tuple[list[int], list[int], int, int]:
        """Collect SA requests as per-input VC bitmasks.

        Returns ``(order, vc_masks, in_mask, out_mask)``: the requesting
        input ports in ascending order, the shared per-input VC mask array
        (entries for ``order`` members are live until reset by ``step``),
        and bitmasks over requesting inputs / requested output ports.
        """
        order: list[int] = []
        vc_masks = self._req_vc_masks
        occ_in = self._occ_in_mask
        if not occ_in:
            return order, vc_masks, 0, 0
        in_mask = 0
        out_mask = 0
        ports = self.in_ports
        occ_vc_masks = self._occ_vc_masks
        get_candidate = candidates.get
        active = VCState.ACTIVE
        m = occ_in
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            vcs = ports[i].vcs
            cand = get_candidate(i)
            vm = occ_vc_masks[i]
            acc = 0
            while vm:
                lowv = vm & -vm
                vm ^= lowv
                vc = vcs[lowv.bit_length() - 1]
                # Inlined ready_for_sa: membership in the occupancy mask
                # already guarantees the buffer is non-empty.
                if (vc is cand or vc.state != active
                        or vc.buffer._q[0].ready_cycle > cycle
                        or vc.out_ovc_obj.credits.count == 0):
                    continue
                acc |= lowv
                out_mask |= 1 << vc.out_port
            if acc:
                vc_masks[i] = acc
                order.append(i)
                in_mask |= low
        return order, vc_masks, in_mask, out_mask

    def _allocate_switch(self, order: list[int], vc_masks: list[int]
                         ) -> list[tuple[int, VirtualChannel]]:
        """Separable input-first allocation with round-robin arbiters."""
        if not order:
            return []
        in_arbs = self._in_arbs
        out_arbs = self._out_arbs
        ports = self.in_ports
        if len(order) == 1:
            i = order[0]
            m = vc_masks[i]
            if m & (m - 1) == 0:
                # Uncontended: both arbiters still rotate exactly as in the
                # general path, so arbiter state stays bit-identical.
                vc = ports[i].vcs[m.bit_length() - 1]
                in_arbs[i].grant_mask(m)
                out_arbs[vc.out_port].grant_mask(1 << i)
                return [(i, vc)]
        stage1: dict[int, VirtualChannel] = {}
        out_order: list[int] = []
        out_masks: dict[int, int] = {}
        for i in order:
            choice = in_arbs[i].grant_mask(vc_masks[i])
            vc = ports[i].vcs[choice]
            stage1[i] = vc
            out = vc.out_port
            prev = out_masks.get(out)
            if prev is None:
                out_order.append(out)
                out_masks[out] = 1 << i
            else:
                out_masks[out] = prev | (1 << i)
        grants = []
        for out in out_order:
            winner = out_arbs[out].grant_mask(out_masks[out])
            grants.append((winner, stage1[winner]))
        return grants

    # -- arrivals: buffer write or buffer bypass ------------------------------

    def _process_arrivals(self, cycle: int, claimed_in: int,
                          claimed_out: int) -> None:
        arrivals = self._arrivals
        if not arrivals:
            return
        bypass_on = self._pc_bypass
        in_ports = self.in_ports
        occ_vc_masks = self._occ_vc_masks
        occ_in_add = 0
        buffered = 0
        probe = self._probe
        router_id = self.router_id
        for i, flit in arrivals:
            ip = in_ports[i]
            vc = ip.vcs[flit.vc]
            if (bypass_on and ip.pc.valid and ip.pc.in_vc == flit.vc
                    and not vc.buffer._q
                    and self._try_buffer_bypass(cycle, i, ip, vc, flit,
                                                claimed_in, claimed_out)):
                continue
            flit.ready_cycle = cycle + 1
            buf = vc.buffer
            q = buf._q
            if len(q) >= buf.capacity:
                buf.append(flit)  # raises BufferOverflowError
            q.append(flit)
            vm = occ_vc_masks[i]
            if not vm:
                occ_in_add |= 1 << i
            occ_vc_masks[i] = vm | (1 << flit.vc)
            buffered += 1
            if probe is not None:
                probe.on_buffer_write(cycle, router_id, i, flit.vc, flit)
        self._occ_in_mask |= occ_in_add
        self._buffered_flits += buffered
        self.stats.buffer_writes += buffered
        arrivals.clear()

    def _try_buffer_bypass(self, cycle: int, i: int, ip: InputPort,
                           vc: VirtualChannel, flit: Flit,
                           claimed_in: int, claimed_out: int) -> bool:
        # The port must be free this cycle AND no earlier flit of this port
        # may still be scheduled for a later ST (it would be overtaken).
        if ip.st_busy_cycle >= cycle or claimed_in >> i & 1:
            return False
        if flit.is_head:
            if vc.state != VCState.IDLE:
                raise ProtocolError(
                    f"router {self.router_id}: head flit arrived on VC "
                    f"{vc.vc_id} still {vc.state.name}")
            packet = flit.packet
            table = self._route_table
            if table is not None:
                out_port, drop, lo, hi = table[packet.route_choice][
                    packet.dst]
            else:
                out_port, drop = self.routing.route(self.router_id, packet)
                lo = hi = -1  # vc_limits resolved below, after early-outs
            if not ip.pc.matches_head(flit.vc, out_port):
                if ip.pc.conflicts_with_route(flit.vc, out_port):
                    self._terminate_pc(cycle, i, Termination.ROUTE_MISMATCH)
                return False
            out = self.out_ports[out_port]
            if claimed_out >> out_port & 1 or out.st_busy_cycle >= cycle:
                return False
            endpoint = out.endpoints[drop]
            if table is None:
                lo, hi = self.routing.vc_limits(packet, self.config.num_vcs,
                                                out_port)
            ovc = self.vc_policy.allocate(endpoint.ovcs, packet, lo, hi,
                                          ejection=out.is_ejection)
            if ovc is None or endpoint.ovcs[ovc].credits.count == 0:
                return False
            vc.start_packet(out_port, drop)
            ovc_state = endpoint.ovcs[ovc]
            ovc_state.owner = (i, vc.vc_id)
            vc.grant_out_vc(ovc)
            vc.out_ep_obj = endpoint
            vc.out_ovc_obj = ovc_state
            self.stats.va_allocations += 1
            probe = self._probe
            if probe is not None:
                probe.on_va_grant(cycle, self.router_id, i, vc.vc_id,
                                  out_port, ovc, flit)
        else:
            if vc.state != VCState.ACTIVE:
                raise ProtocolError(
                    f"router {self.router_id}: body flit arrived on "
                    f"inactive VC {vc.vc_id}")
            out = self.out_ports[vc.out_port]
            if claimed_out >> vc.out_port & 1 or out.st_busy_cycle >= cycle:
                return False
            if vc.out_ovc_obj.credits.count == 0:
                # Out of credit before the flit arrived: tear the circuit
                # down and buffer normally (Section IV.B).
                self._terminate_pc(cycle, i, Termination.NO_CREDIT)
                return False
        self._traverse(cycle, i, vc, via="buf", arriving=flit)
        return True

    # -- flit traversal (common to SA grants and both bypass kinds) -----------

    def _traverse(self, cycle: int, i: int, vc: VirtualChannel, via: str,
                  arriving: Flit | None = None,
                  streamed: bool = False) -> None:
        ip = self.in_ports[i]
        stats = self.stats
        vc_id = vc.vc_id
        if arriving is None:
            q = vc.buffer._q
            flit = q.popleft()
            read = True
            if not q:
                occ_vc_masks = self._occ_vc_masks
                vm = occ_vc_masks[i] & ~(1 << vc_id)
                occ_vc_masks[i] = vm
                if not vm:
                    self._occ_in_mask &= ~(1 << i)
            self._buffered_flits -= 1
        else:
            flit = arriving  # write-through bypass: the slot is never held
            read = False
        channel = ip.credit_channel
        channel._inflight.append((cycle + channel.delay, vc_id))
        self._pending_credits += 1
        self._credit_mask |= 1 << i
        credit_set = self._credit_set
        if credit_set is not None:
            credit_set[self.router_id] = self
        out_port = vc.out_port
        out = self.out_ports[out_port]
        endpoint = vc.out_ep_obj
        ovc_state = vc.out_ovc_obj
        try:
            ovc_state.credits.consume()
        except InvariantViolation as err:
            if err.cycle is None:
                err.cycle = cycle
            raise
        packet = flit.packet
        # Temporal locality (Fig. 1) and per-hop event counters, recorded
        # inline (this is the single hottest call site of the simulator;
        # see NetworkStats.record_hop for the reference semantics).
        if flit.is_head:
            packet.hops += 1
            if via != "sa":
                packet.sa_bypass_hops += 1
                stats.sa_bypass_flits += 1
                if via == "buf":
                    packet.buf_bypass_hops += 1
                    stats.buf_bypass_flits += 1
            else:
                stats.sa_arbitrations += 1
            pair = (packet.src, packet.dst)
            stats.e2e_packets += 1
            if ip.last_pair == pair:
                stats.e2e_repeats += 1
            ip.last_pair = pair
        elif via != "sa":
            stats.sa_bypass_flits += 1
            if via == "buf":
                stats.buf_bypass_flits += 1
        else:
            stats.sa_arbitrations += 1
        stats.flit_hops += 1
        stats.xbar_flits += 1
        if read:
            stats.buffer_reads += 1
        if ip.last_out == out_port:
            stats.xbar_repeats += 1
        ip.last_out = out_port
        probe = self._probe
        if probe is not None:
            probe.on_traverse(cycle, self.router_id, i, vc_id, out_port,
                              via, read, flit)
        if self._pc_enabled:
            # Refresh fast path: a valid register already pointing at this
            # exact (in VC, output) connection is re-established unchanged
            # by _establish_pc, so skip the call entirely.
            reg = ip.pc
            if not (reg.valid and reg.in_vc == vc_id
                    and reg.out_port == out_port and out.pc_holder == i):
                self._establish_pc(cycle, i, vc_id, out_port)
            elif probe is not None:
                probe.on_pc_establish(cycle, self.router_id, i, vc_id,
                                      out_port, True)
        # Crossbar occupancy: SA grants and streamed circuit followers
        # traverse next cycle, bypasses traverse now.
        delayed = via == "sa" or streamed
        st_cycle = cycle + 1 if delayed else cycle
        ip.st_busy_cycle = st_cycle
        out.st_busy_cycle = st_cycle
        flit.vc = vc.out_vc
        arrival = cycle + endpoint.latency + (2 if delayed else 1)
        out.sink.deliver(flit, endpoint, arrival)
        if flit.is_tail:
            ovc_state.owner = None
            vc.finish_packet()

    # -- pseudo-circuit bookkeeping -------------------------------------------

    def _establish_pc(self, cycle: int, i: int, in_vc: int,
                      out_port: int) -> None:
        ip = self.in_ports[i]
        reg = ip.pc
        out = self.out_ports[out_port]
        holder = out.pc_holder
        if holder not in (-1, i):
            self._terminate_pc(cycle, holder, Termination.CONFLICT_OUTPUT)
        if reg.valid and reg.out_port != out_port:
            self._terminate_pc(cycle, i, Termination.CONFLICT_INPUT)
        refreshed = (reg.valid and reg.in_vc == in_vc
                     and reg.out_port == out_port)
        reg.establish(in_vc, out_port)
        out.pc_holder = i
        if not refreshed:
            self.stats.pc_established += 1
        probe = self._probe
        if probe is not None:
            probe.on_pc_establish(cycle, self.router_id, i, in_vc, out_port,
                                  refreshed)

    def _terminate_pc(self, cycle: int, i: int, reason: Termination) -> None:
        reg = self.in_ports[i].pc
        if not reg.valid:
            return
        reg.invalidate()
        out = self.out_ports[reg.out_port]
        if out.pc_holder == i:
            out.pc_holder = -1
        out.history.record_termination(i)
        self.stats.pc_terminations[reason] += 1
        probe = self._probe
        if probe is not None:
            probe.on_pc_terminate(cycle, self.router_id, i, reg.out_port,
                                  reason)

    def _pc_maintenance(self, cycle: int) -> None:
        """End-of-cycle pseudo-circuit upkeep, fused into one output pass:
        credit terminations on held outputs, speculative restoration on
        free ones (reference semantics: ``speculation.try_restore``).

        A NO_CREDIT termination at a port only ever creates restoration
        candidates at that *same* port — and that port is creditless, so
        it cannot be restored this cycle. The per-port fusion is therefore
        identical to running every termination and then every restoration.
        """
        registers = self._registers
        # Candidate prescan: outputs some invalidated circuit still points
        # at. Terminations made during the pass below only add candidates
        # at their own (creditless, hence unrestorable) port, so the
        # snapshot stays exact.
        cand_outs = 0
        if self._pc_speculation:
            for reg in registers:
                if not reg.valid and reg.in_vc >= 0:
                    cand_outs |= 1 << reg.out_port
        for out in self.out_ports:
            holder = out.pc_holder
            if holder != -1:
                # Inlined OutputPort.any_credit (hot: one check per held
                # output per cycle).
                for ep in out.endpoints:
                    for ovc in ep.ovcs:
                        if ovc.credits.count:
                            break
                    else:
                        continue
                    break
                else:
                    self._terminate_pc(cycle, holder, Termination.NO_CREDIT)
                continue
            port_id = out.port_id
            if not cand_outs >> port_id & 1:
                continue
            # Free output with candidates: pick the invalidated circuit
            # still pointing here; the history register resolves ties.
            hist = out.history.last_input
            chosen = -1
            count = 0
            hist_ok = False
            for i, reg in enumerate(registers):
                if (not reg.valid and reg.in_vc >= 0
                        and reg.out_port == port_id):
                    count += 1
                    if chosen == -1:
                        chosen = i
                    if i == hist:
                        hist_ok = True
            if count == 0:
                continue
            if count > 1:
                if not hist_ok:
                    continue
                chosen = hist
            for ep in out.endpoints:  # restoration needs credits downstream
                for ovc in ep.ovcs:
                    if ovc.credits.count:
                        break
                else:
                    continue
                break
            else:
                continue
            registers[chosen].restore()
            out.pc_holder = chosen
            self.stats.pc_restored += 1
            probe = self._probe
            if probe is not None:
                probe.on_pc_restore(cycle, self.router_id, chosen, port_id)

    # -- introspection (tests) ------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the pseudo-circuit and credit invariants (tests only)."""
        holders: dict[int, int] = {}
        for i, ip in enumerate(self.in_ports):
            if ip.pc.valid:
                o = ip.pc.out_port
                if o in holders:
                    raise AssertionError(
                        f"outputs {o} held by inputs {holders[o]} and {i}")
                holders[o] = i
        for out in self.out_ports:
            expected = holders.get(out.port_id, -1)
            if out.pc_holder != expected:
                raise AssertionError(
                    f"pc_holder[{out.port_id}]={out.pc_holder} but register "
                    f"scan says {expected}")
            for ep in out.endpoints:
                for ovc in ep.ovcs:
                    if not 0 <= ovc.credits.count <= ovc.credits.limit:
                        raise AssertionError("credit counter out of range")
        for ip in self.in_ports:
            for vc in ip.vcs:
                if vc.state != VCState.ACTIVE:
                    continue
                expected_ovc = self.out_ports[vc.out_port].endpoints[
                    vc.out_ep].ovcs[vc.out_vc]
                if vc.out_ovc_obj is not expected_ovc:
                    raise AssertionError(
                        f"router {self.router_id}: stale downstream cache "
                        f"on VC {vc.vc_id}")
        for i, ip in enumerate(self.in_ports):
            occupied = {v for v, vc in enumerate(ip.vcs) if vc.buffer}
            mask = self._occ_vc_masks[i]
            from_mask = {b for b in range(len(ip.vcs)) if mask >> b & 1}
            if occupied != from_mask:
                raise AssertionError(
                    f"router {self.router_id}: occupancy mask "
                    f"{from_mask} != buffers {occupied} at input {i}")
            if bool(occupied) != bool(self._occ_in_mask >> i & 1):
                raise AssertionError(
                    f"router {self.router_id}: input mask out of sync "
                    f"at input {i}")

    def __repr__(self) -> str:
        return (f"Router(id={self.router_id}, in={len(self.in_ports)}, "
                f"out={len(self.out_ports)})")
