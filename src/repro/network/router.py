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

Cycle-internal ordering
-----------------------

``step`` is one function that runs the phases in the order the array
cores' ``kernel.c`` lists them (its phase comments point at the blocks
below, which carry the same names):

1. **VA**: route the head flits at the front of idle VCs and allocate
   output VCs, input ports rotated by the cycle, VCs ascending;
2. **PC candidates**: input ports whose valid circuit's VC has a
   matching front flit (route-mismatch / credit terminations on the
   way);
3. **SA requests** from every other active, credited VC;
4. **circuit reuse**: unblocked candidates traverse without SA; blocked
   ones fall back to SA requests this same cycle (the paper's "no
   additional penalty" rule);
5. **BW**: each arrival bypasses the buffer through a matching idle
   circuit (``_try_buffer_bypass``) or is written into its VC;
6. **switch allocation**: separable, input-first, round robin; grants
   traverse next cycle;
7. **PC upkeep**: credit terminations on held outputs, speculative
   restoration on free ones.

BW runs after the three scans that read a buffer's front (VA, PC
candidates, SA requests), so a flit written in cycle ``c`` is first
read in ``c + 1``: the buffer-write stage's cycle is this order, not a
stamp on the flit (``tests/network/test_read_after_write.py``).

Every flit that moves goes through ``_traverse``; the rare events —
buffer bypass attempts, circuit terminations and conflicting
establishments — keep methods of their own.

Hot-path representation
-----------------------

Buffer occupancy, SA requests, claimed crossbar ports, pending credit
ports and the circuits are integer bitmasks visited
lowest-bit-first (``mask & -mask``), the ascending order of a full scan
without its cost: occupancy is one input-port mask plus one VC mask per
input; circuits are the inputs with a valid register, the inputs with an
invalidated one still naming an output (restorable), and the outputs
with a holder — ``kernel.c``'s ``r_pcv``, ``r_pcinv`` and ``r_held``,
kept current wherever a register or a holder changes. An arbiter is one
int (``_in_rr`` per input, over its VCs; ``_out_rr`` per output, over
the inputs) moved by :func:`~repro.network.arbiters.round_robin`'s rule.

A flit-hop is one ``_traverse`` call and its link's ``deliver``: credits
(``OutVC.credits``), VC state (IDLE -> VA -> ACTIVE -> IDLE), circuits
(``PseudoCircuitRegister``) and buffers (each VC's deque) are plain
records the cycle reads and writes in place; this module and
``kernel.c`` are the only statements of their rules. Route computation
is one tuple index per head flit into the routing's compiled tables
(``routing.compiled``), and a VC window one more.
"""

from __future__ import annotations

from ..core.pseudo_circuit import Termination
from ..metrics.stats import NetworkStats
from ..routing.base import RoutingAlgorithm
from ..routing.compiled import compile_routing
from ..vcalloc.base import VCAllocationPolicy
from .arbiters import round_robin
from .config import NetworkConfig
from .credits import credit_error
from .flit import Flit
from .ports import InputPort, OutputPort
from .vc import BufferOverflowError, VCState, VirtualChannel

IDLE, VA, ACTIVE = VCState.IDLE, VCState.VA, VCState.ACTIVE


class ProtocolError(RuntimeError):
    """A flow-control or wormhole invariant was violated."""


class Router:
    """One router; ports are wired by the Network at build time."""

    __slots__ = ("router_id", "config", "vc_policy", "stats",
                 "in_ports", "out_ports", "_in_rr", "_out_rr",
                 "_arrivals", "_buffered_flits",
                 "_occ_in_mask", "_occ_vc_masks", "_req_vc_masks",
                 "_in_full_mask",
                 "_route_table", "_windows",
                 "_pc_enabled", "_pc_speculation", "_pc_bypass",
                 "_pc_valid_mask", "_pc_restorable_mask", "_pc_held_mask",
                 "_pending_credits", "_credit_mask", "_credit_delay",
                 "_registers",
                 "_work_set", "_credit_set", "_probe")

    def __init__(self, router_id: int, num_inports: int, num_outports: int,
                 config: NetworkConfig, routing: RoutingAlgorithm,
                 vc_policy: VCAllocationPolicy, stats: NetworkStats):
        self.router_id = router_id
        self.config = config
        self.vc_policy = vc_policy
        self.stats = stats
        self.in_ports = [InputPort(p, config.num_vcs)
                         for p in range(num_inports)]
        # Output ports are replaced by the Network once channels exist.
        self.out_ports: list[OutputPort] = [
            OutputPort(p, []) for p in range(num_outports)]
        self._in_full_mask = (1 << num_inports) - 1
        # This router's rows of the compiled routing (built once per
        # routing instance): ``_route_table[route_choice][dst]`` ->
        # ``(out_port, drop)``, ``_windows[route_choice][out_port]`` ->
        # the packet's VC window on that output.
        compiled = compile_routing(routing, routing.topology,
                                   config.num_vcs)
        self._route_table = compiled.tables[router_id]
        self._windows = compiled.windows
        # The per-input pseudo-circuit registers never change identity
        # after construction.
        self._registers = [ip.pc for ip in self.in_ports]
        # Scheme flags, flattened out of the frozen config (step() reads
        # them every cycle for every active router).
        self._pc_enabled = config.pseudo.enabled
        self._pc_speculation = config.pseudo.speculation
        self._pc_bypass = config.pseudo.buffer_bypass
        self._credit_delay = config.credit_delay
        # Active-set registries (dicts keyed by router id), bound by the
        # Network; a standalone router registers into its own, unread.
        self._work_set: dict = {}
        self._credit_set: dict = {}
        self._reset_own()

    def reset(self) -> None:
        """Initial state of the router and of everything wired into it:
        ports, arbiters, occupancy and credit bookkeeping; no probe."""
        for ip in self.in_ports:
            ip.reset()
        for out in self.out_ports:
            out.reset()
        self._reset_own()

    def _reset_own(self) -> None:
        """The registers of this object itself; its parts have their own."""
        num_inports = len(self.in_ports)
        # Round-robin pointers: requester 0 has the highest priority.
        self._in_rr = [0] * num_inports
        self._out_rr = [0] * len(self.out_ports)
        self._arrivals: list[tuple[int, Flit]] = []
        self._buffered_flits = 0
        # Buffer occupancy as bitmasks: bit i of _occ_in_mask marks an input
        # port with at least one occupied VC, _occ_vc_masks[i] marks which.
        self._occ_in_mask = 0
        self._occ_vc_masks = [0] * num_inports
        # Per-input SA request VC masks, reused across cycles (reset after
        # each allocation so idle cycles never touch them).
        self._req_vc_masks = [0] * num_inports
        # Circuits: inputs whose register is valid, inputs whose register
        # was invalidated and still names an output, outputs with a holder.
        self._pc_valid_mask = 0
        self._pc_restorable_mask = 0
        self._pc_held_mask = 0
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

    # -- per-cycle entry points -----------------------------------------------

    def accept_flit(self, in_port: int, flit: Flit) -> None:
        """Stage a flit delivered by an upstream channel this cycle (the
        network loop stages a FIFO link's flits itself)."""
        self._work_set[self.router_id] = self
        self._arrivals.append((in_port, flit))

    def deliver_credits(self, cycle: int) -> None:
        if self._pending_credits == 0:
            return
        delivered = 0
        ports = self.in_ports
        mask = self._credit_mask
        probe = self._probe
        m = mask
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            ip = ports[i]
            # Walk the due prefix of the port's credit returns.
            q = ip.credit_due
            upstream = ip.upstream
            while q and q[0][0] <= cycle:
                vc = q.popleft()[1]
                ovc = upstream.ovcs[vc]
                count = ovc.credits
                if count >= ovc.limit:
                    raise credit_error(ovc, cycle)
                ovc.credits = count + 1
                delivered += 1
                if probe is not None:
                    probe.on_credit_restore(cycle, self.router_id, i, vc)
            if not q:
                mask ^= low
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
            due = ports[low.bit_length() - 1].credit_due[0][0]
            if nxt is None or due < nxt:
                nxt = due
        if nxt is None:
            raise ValueError("next_credit_cycle() with no pending credits")
        return nxt

    def step(self, cycle: int) -> None:
        arrivals = self._arrivals
        if not arrivals and self._buffered_flits == 0:
            return  # idle router: nothing can happen this cycle
        in_ports = self.in_ports
        out_ports = self.out_ports
        occ_vc_masks = self._occ_vc_masks
        occ_in = self._occ_in_mask
        pc_enabled = self._pc_enabled
        probe = self._probe
        router_id = self.router_id
        stats = self.stats

        # -- VA ---------------------------------------------------------------
        # Visit only VCs that hold flits, rotating the port service order
        # for fairness: rotate the occupancy mask so the start port lands
        # on bit 0, then peel ascending bits.
        if occ_in:
            num = len(in_ports)
            table = self._route_table
            windows = self._windows
            allocate = self.vc_policy.allocate
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
                vcs = in_ports[i].vcs
                vm = occ_vc_masks[i]
                while vm:
                    lowv = vm & -vm
                    vm ^= lowv
                    vc = vcs[lowv.bit_length() - 1]
                    state = vc.state
                    if state == ACTIVE:
                        continue  # VA already done for this packet
                    front = vc.buffer[0]
                    packet = front.packet
                    if state != VA:  # IDLE: route the new head
                        if not front.is_head:
                            raise ProtocolError(
                                f"router {router_id}: body flit at the "
                                f"front of idle VC {vc.vc_id}: {front}")
                        out_port, drop = table[packet.route_choice][
                            packet.dst]
                        vc.state = VA
                        vc.out_port = out_port
                        vc.out_ep = drop
                        vc.out_vc = -1
                    out = out_ports[vc.out_port]
                    endpoint = out.endpoints[vc.out_ep]
                    lo, hi = windows[packet.route_choice][vc.out_port]
                    ovc = allocate(endpoint.ovcs, packet, lo, hi,
                                   ejection=out.is_ejection)
                    if ovc is None:
                        continue
                    ovc_state = endpoint.ovcs[ovc]
                    ovc_state.owner = (i, vc.vc_id)
                    vc.state = ACTIVE
                    vc.out_vc = ovc
                    vc.out_ep_obj = endpoint
                    vc.out_ovc_obj = ovc_state
                    stats.va_allocations += 1
                    if probe is not None:
                        probe.on_va_grant(cycle, router_id, i, vc.vc_id,
                                          vc.out_port, ovc, front)

        # -- PC candidates ----------------------------------------------------
        # Ascending input ports, so insertion order is the sorted scan.
        candidates: dict[int, VirtualChannel] = {}
        m = self._pc_valid_mask & occ_in
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            ip = in_ports[i]
            reg = ip.pc
            in_vc = reg.in_vc
            if not occ_vc_masks[i] >> in_vc & 1:
                continue
            vc = ip.vcs[in_vc]
            front = vc.buffer[0]
            if front.is_head:
                # Route is known (the VA phase ran first this cycle).
                if vc.out_port != reg.out_port:
                    self._terminate_pc(cycle, i, Termination.ROUTE_MISMATCH)
                    continue
                if vc.state != ACTIVE:
                    continue  # header still waiting for an output VC
            elif vc.state != ACTIVE:
                raise ProtocolError(
                    f"router {router_id}: body flit on inactive VC")
            if vc.out_ovc_obj.credits == 0:
                self._terminate_pc(cycle, i, Termination.NO_CREDIT)
                continue
            candidates[i] = vc

        # -- SA requests ------------------------------------------------------
        # One VC mask per requesting input (``order``, ascending); the
        # claimed masks are what the requests occupy of the crossbar.
        order: list[int] = []
        vc_masks = self._req_vc_masks
        claimed_in = 0
        claimed_out = 0
        m = occ_in
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            vcs = in_ports[i].vcs
            cand = candidates.get(i) if candidates else None
            vm = occ_vc_masks[i]
            acc = 0
            while vm:
                lowv = vm & -vm
                vm ^= lowv
                vc = vcs[lowv.bit_length() - 1]
                # Membership in the occupancy mask already guarantees the
                # buffer is non-empty.
                if (vc is cand or vc.state != ACTIVE
                        or vc.out_ovc_obj.credits == 0):
                    continue
                acc |= lowv
                claimed_out |= 1 << vc.out_port
            if acc:
                vc_masks[i] = acc
                order.append(i)
                claimed_in |= low

        # -- circuit reuse ----------------------------------------------------
        for i, vc in candidates.items():
            out_port = vc.out_port
            in_busy = in_ports[i].st_busy_cycle == cycle
            out_busy = out_ports[out_port].st_busy_cycle == cycle
            if (claimed_in >> i & 1 or claimed_out >> out_port & 1
                    or in_busy != out_busy):
                if vc_masks[i] == 0:
                    order.append(i)
                vc_masks[i] |= 1 << vc.vc_id
                claimed_in |= 1 << i
                claimed_out |= 1 << out_port
            else:
                # Both ports busy means both carry the previous flit of
                # this same circuit (anything else would have re-established
                # or terminated the register): the stream keeps flowing
                # one cycle behind it, without arbitration.
                self._traverse(cycle, i, vc, "pc", in_busy, None)

        # -- BW ---------------------------------------------------------------
        if arrivals:
            bypass_on = self._pc_bypass
            depth = self.config.buffer_depth
            occ_in_add = 0
            buffered = 0
            for i, flit in arrivals:
                ip = in_ports[i]
                vc_id = flit.vc
                vc = ip.vcs[vc_id]
                q = vc.buffer
                # Bypass needs the port free this cycle, and no earlier
                # flit of the port still scheduled for a later ST (it
                # would be overtaken).
                if (bypass_on and not q and ip.pc.valid
                        and ip.pc.in_vc == vc_id
                        and ip.st_busy_cycle < cycle
                        and not claimed_in >> i & 1
                        and self._try_buffer_bypass(cycle, i, ip, vc, flit,
                                                    claimed_out)):
                    continue
                if len(q) >= depth:
                    raise BufferOverflowError(
                        f"buffer write to full {depth}-flit buffer: {flit}")
                q.append(flit)
                vm = occ_vc_masks[i]
                if not vm:
                    occ_in_add |= 1 << i
                occ_vc_masks[i] = vm | (1 << vc_id)
                buffered += 1
                if probe is not None:
                    probe.on_buffer_write(cycle, router_id, i, vc_id, flit)
            self._occ_in_mask |= occ_in_add
            self._buffered_flits += buffered
            stats.buffer_writes += buffered
            arrivals.clear()

        # -- switch allocation ------------------------------------------------
        # Separable input-first: each requesting input picks a VC, each
        # requested output an input, outputs in first-requested order; a
        # single request needs no rotation, only the pointer moves.
        if order:
            in_rr = self._in_rr
            out_rr = self._out_rr
            num_vcs = self.config.num_vcs
            num_in = len(in_ports)
            picked: dict[int, VirtualChannel] = {}
            out_masks: dict[int, int] = {}
            for i in order:
                m = vc_masks[i]
                vc_masks[i] = 0
                v = (m.bit_length() - 1 if m & (m - 1) == 0
                     else round_robin(m, in_rr[i], num_vcs))
                in_rr[i] = v + 1 if v + 1 < num_vcs else 0
                vc = in_ports[i].vcs[v]
                picked[i] = vc
                o = vc.out_port
                out_masks[o] = out_masks.get(o, 0) | (1 << i)
            for o, m in out_masks.items():
                w = (m.bit_length() - 1 if m & (m - 1) == 0
                     else round_robin(m, out_rr[o], num_in))
                out_rr[o] = w + 1 if w + 1 < num_in else 0
                self._traverse(cycle, w, picked[w], "sa", True, None)

        # -- PC upkeep --------------------------------------------------------
        # Credit terminations on held outputs, speculative restoration on
        # free ones some invalidated circuit still points at (Section
        # IV.A: only onto an output with credits downstream; of several
        # candidates, the one its history register names, else none), in
        # one ascending pass over both. A termination here only ever
        # makes its own (creditless, hence unrestorable) output a
        # candidate, and a restoration only takes its own, so the
        # snapshots stay exact.
        if pc_enabled:
            held = self._pc_held_mask
            restorable = (self._pc_restorable_mask if self._pc_speculation
                          else 0)
            registers = self._registers
            outs = held
            m = restorable
            while m:
                low = m & -m
                m ^= low
                outs |= 1 << registers[low.bit_length() - 1].out_port
            while outs:
                low = outs & -outs
                outs ^= low
                o = low.bit_length() - 1
                out = out_ports[o]
                for ep in out.endpoints:
                    for ovc in ep.ovcs:
                        if ovc.credits:
                            break
                    else:
                        continue
                    break
                else:
                    if held & low:
                        self._terminate_pc(cycle, out.pc_holder,
                                           Termination.NO_CREDIT)
                    continue  # restoration needs credits downstream
                if held & low:
                    continue
                # The invalidated circuit pointing here; among several,
                # the history register's, or none.
                hist = out.last_input
                chosen = -1
                count = 0
                hist_ok = False
                m = restorable
                while m:
                    lowi = m & -m
                    m ^= lowi
                    i = lowi.bit_length() - 1
                    if registers[i].out_port != o:
                        continue
                    count += 1
                    if chosen == -1:
                        chosen = i
                    if i == hist:
                        hist_ok = True
                if count > 1:
                    if not hist_ok:
                        continue
                    chosen = hist
                registers[chosen].valid = True
                out.pc_holder = chosen
                bit = 1 << chosen
                self._pc_valid_mask |= bit
                self._pc_restorable_mask &= ~bit
                self._pc_held_mask |= low
                stats.pc_restored += 1
                if probe is not None:
                    probe.on_pc_restore(cycle, router_id, chosen, o)

    def _try_buffer_bypass(self, cycle: int, i: int, ip: InputPort,
                           vc: VirtualChannel, flit: Flit,
                           claimed_out: int) -> bool:
        """An arrival on the empty VC of the port's valid circuit, with the
        port free: traverse now if the circuit's output is free too."""
        if flit.is_head:
            if vc.state != IDLE:
                raise ProtocolError(
                    f"router {self.router_id}: head flit arrived on VC "
                    f"{vc.vc_id} still {vc.state.name}")
            packet = flit.packet
            choice = packet.route_choice
            out_port, drop = self._route_table[choice][packet.dst]
            if ip.pc.out_port != out_port:  # same VC, different output
                self._terminate_pc(cycle, i, Termination.ROUTE_MISMATCH)
                return False
            out = self.out_ports[out_port]
            if claimed_out >> out_port & 1 or out.st_busy_cycle >= cycle:
                return False
            endpoint = out.endpoints[drop]
            lo, hi = self._windows[choice][out_port]
            ovc = self.vc_policy.allocate(endpoint.ovcs, packet, lo, hi,
                                          ejection=out.is_ejection)
            if ovc is None or endpoint.ovcs[ovc].credits == 0:
                return False
            ovc_state = endpoint.ovcs[ovc]
            ovc_state.owner = (i, vc.vc_id)
            vc.state = ACTIVE
            vc.out_port = out_port
            vc.out_ep = drop
            vc.out_vc = ovc
            vc.out_ep_obj = endpoint
            vc.out_ovc_obj = ovc_state
            self.stats.va_allocations += 1
            probe = self._probe
            if probe is not None:
                probe.on_va_grant(cycle, self.router_id, i, vc.vc_id,
                                  out_port, ovc, flit)
        else:
            if vc.state != ACTIVE:
                raise ProtocolError(
                    f"router {self.router_id}: body flit arrived on "
                    f"inactive VC {vc.vc_id}")
            out = self.out_ports[vc.out_port]
            if claimed_out >> vc.out_port & 1 or out.st_busy_cycle >= cycle:
                return False
            if vc.out_ovc_obj.credits == 0:
                # Out of credit before the flit arrived: tear the circuit
                # down and buffer normally (Section IV.B).
                self._terminate_pc(cycle, i, Termination.NO_CREDIT)
                return False
        self._traverse(cycle, i, vc, "buf", False, flit)
        return True

    # -- flit traversal (common to SA grants and both bypass kinds) -----------

    def _traverse(self, cycle: int, i: int, vc: VirtualChannel, via: str,
                  delayed: bool, arriving: Flit | None) -> None:
        """Move one flit through the crossbar: the front of ``vc``, or
        ``arriving`` on a buffer bypass (write-through: the slot is never
        held). ``delayed`` (SA grants, streamed circuit followers)
        traverses next cycle, anything else now."""
        ip = self.in_ports[i]
        stats = self.stats
        vc_id = vc.vc_id
        if arriving is None:
            q = vc.buffer
            flit = q.popleft()
            read = True
            if not q:
                occ_vc_masks = self._occ_vc_masks
                vm = occ_vc_masks[i] & ~(1 << vc_id)
                occ_vc_masks[i] = vm
                if not vm:
                    self._occ_in_mask &= ~(1 << i)
            self._buffered_flits -= 1
            stats.buffer_reads += 1
        else:
            flit = arriving
            read = False
        ip.credit_due.append((cycle + self._credit_delay, vc_id))
        self._pending_credits += 1
        self._credit_mask |= 1 << i
        self._credit_set[self.router_id] = self
        out_port = vc.out_port
        out = self.out_ports[out_port]
        ovc_state = vc.out_ovc_obj
        count = ovc_state.credits
        if count <= 0:
            raise credit_error(ovc_state, cycle)
        ovc_state.credits = count - 1
        packet = flit.packet
        # Temporal locality (Fig. 1) and per-hop event counters: a head
        # counts the packet's hop and end-to-end pair, every flit its
        # crossbar connection and how it got there (SA, circuit, bypass).
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
        if ip.last_out == out_port:
            stats.xbar_repeats += 1
        ip.last_out = out_port
        probe = self._probe
        if probe is not None:
            probe.on_traverse(cycle, self.router_id, i, vc_id, out_port,
                              via, read, flit)
        if self._pc_enabled:
            # Every traversal (re-)establishes its circuit. Refreshing the
            # identical connection and latching a fresh one onto a free
            # output are done here; anything that tears a circuit down
            # goes through _establish_pc.
            reg = ip.pc
            if reg.valid:
                if (reg.in_vc == vc_id and reg.out_port == out_port
                        and out.pc_holder == i):
                    if probe is not None:
                        probe.on_pc_establish(cycle, self.router_id, i,
                                              vc_id, out_port, True)
                else:
                    self._establish_pc(cycle, i, vc_id, out_port)
            elif out.pc_holder == -1:
                reg.in_vc = vc_id
                reg.out_port = out_port
                reg.valid = True
                out.pc_holder = i
                self._pc_valid_mask |= 1 << i
                self._pc_restorable_mask &= ~(1 << i)
                self._pc_held_mask |= 1 << out_port
                stats.pc_established += 1
                if probe is not None:
                    probe.on_pc_establish(cycle, self.router_id, i, vc_id,
                                          out_port, False)
            else:
                self._establish_pc(cycle, i, vc_id, out_port)
        st_cycle = cycle + 1 if delayed else cycle
        ip.st_busy_cycle = st_cycle
        out.st_busy_cycle = st_cycle
        flit.vc = vc.out_vc
        endpoint = vc.out_ep_obj
        out.sink.deliver(flit, endpoint, st_cycle + 1 + endpoint.latency)
        if flit.is_tail:
            # The tail departed: ACTIVE -> IDLE (every path here starts
            # from an ACTIVE VC).
            ovc_state.owner = None
            vc.state = IDLE
            vc.out_port = -1
            vc.out_ep = 0
            vc.out_vc = -1
            vc.out_ep_obj = None
            vc.out_ovc_obj = None

    # -- pseudo-circuit bookkeeping -------------------------------------------

    def _establish_pc(self, cycle: int, i: int, in_vc: int,
                      out_port: int) -> None:
        reg = self.in_ports[i].pc
        out = self.out_ports[out_port]
        holder = out.pc_holder
        if holder not in (-1, i):
            self._terminate_pc(cycle, holder, Termination.CONFLICT_OUTPUT)
        if reg.valid and reg.out_port != out_port:
            self._terminate_pc(cycle, i, Termination.CONFLICT_INPUT)
        refreshed = (reg.valid and reg.in_vc == in_vc
                     and reg.out_port == out_port)
        reg.in_vc = in_vc
        reg.out_port = out_port
        reg.valid = True
        out.pc_holder = i
        self._pc_valid_mask |= 1 << i
        self._pc_restorable_mask &= ~(1 << i)
        self._pc_held_mask |= 1 << out_port
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
        reg.valid = False  # the register keeps its contents
        self._pc_valid_mask &= ~(1 << i)
        self._pc_restorable_mask |= 1 << i
        out = self.out_ports[reg.out_port]
        if out.pc_holder == i:
            out.pc_holder = -1
            self._pc_held_mask &= ~(1 << reg.out_port)
        out.last_input = i
        self.stats.pc_terminations[reason] += 1
        probe = self._probe
        if probe is not None:
            probe.on_pc_terminate(cycle, self.router_id, i, reg.out_port,
                                  reason)

    # -- introspection --------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the pseudo-circuit, credit and occupancy invariants (the
        end of every scalar point runs it, through
        ``Network.check_invariants``)."""
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
                    if not 0 <= ovc.credits <= ovc.limit:
                        raise AssertionError("credit counter out of range")
        masks = {
            "valid": (self._pc_valid_mask,
                      [reg.valid for reg in self._registers]),
            "restorable": (self._pc_restorable_mask,
                           [not reg.valid and reg.in_vc >= 0
                            for reg in self._registers]),
            "held": (self._pc_held_mask,
                     [out.pc_holder != -1 for out in self.out_ports])}
        for name, (mask, bits) in masks.items():
            if mask != sum(1 << b for b, on in enumerate(bits) if on):
                raise AssertionError(
                    f"router {self.router_id}: {name} circuit mask "
                    f"{mask:#x} out of sync")
        for ip in self.in_ports:
            for vc in ip.vcs:
                if vc.state != ACTIVE:
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
