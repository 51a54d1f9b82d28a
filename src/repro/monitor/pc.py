"""Pseudo-circuit state-machine monitor (paper Sections III–IV).

Maintains a shadow copy of every pseudo-circuit register and every output
port's holder, updated *only* from the probe event stream
(``on_pc_establish`` / ``on_pc_terminate`` / ``on_pc_restore``), and
compares it against the live router state at every cycle boundary. Any
direct corruption of the PC state — two inputs latched to one output, a
register revalidated or retargeted without an event — is therefore caught
within one cycle.

Event legality, per the paper's rules:

* an establish may only land on an output whose (shadow) holder is free or
  the establishing input itself — conflicting circuits must have emitted
  their ``CONFLICT_OUTPUT`` / ``CONFLICT_INPUT`` terminations first;
* ``CONFLICT_OUTPUT`` / ``CONFLICT_INPUT`` terminations must be followed
  by the establish that displaced them in the same cycle;
* a terminate must name a valid circuit and its actual output;
* a restore (speculation, Section IV.A) may only revalidate an
  invalidated-but-once-established register on a free output with credits
  available downstream;
* a buffer bypass (``via='buf'``) requires the VC buffer to have been
  empty, and any bypass (``via`` ≠ ``'sa'``) requires a matching valid
  circuit.

The monitor also accumulates per-router hop/bypass counters, so the
reuse and buffer-bypass rates of EXPERIMENTS.md come out of a checked
monitor; ``finish`` reconciles the aggregates against ``NetworkStats``.
"""

from __future__ import annotations

from ..core.pseudo_circuit import Termination
from .base import Monitor


class _ShadowReg:
    __slots__ = ("in_vc", "out_port", "valid")

    def __init__(self):
        self.in_vc = -1
        self.out_port = -1
        self.valid = False


class PseudoCircuitMonitor(Monitor):
    """Validate the pseudo-circuit state machine against its event stream."""

    name = "pseudo_circuit"

    def __init__(self, strict: bool = True):
        super().__init__(strict)
        self._regs: list[list[_ShadowReg]] = []
        self._holders: list[list[int]] = []
        # Same-cycle event pairing for the conflict termination rules.
        self._pending_conflicts: list[tuple] = []
        self._establishes: list[tuple] = []
        self._event_cycle = -1
        # Per-router accumulators (reuse / bypass rates).
        self.hops: list[int] = []
        self.sa_bypass: list[int] = []
        self.buf_bypass: list[int] = []
        self.established = 0
        self.refreshed = 0
        self.restored = 0
        self.terminations: dict[str, int] = {}
        self.scans = 0

    def bind(self, network):
        super().bind(network)
        self._regs = []
        self._holders = []
        for router in network.routers:
            regs = []
            for ip in router.in_ports:
                shadow = _ShadowReg()
                shadow.in_vc = ip.pc.in_vc
                shadow.out_port = ip.pc.out_port
                shadow.valid = ip.pc.valid
                regs.append(shadow)
            self._regs.append(regs)
            self._holders.append([out.pc_holder
                                  for out in router.out_ports])
        n = len(network.routers)
        self.hops = [0] * n
        self.sa_bypass = [0] * n
        self.buf_bypass = [0] * n

    # -- event legality + shadow updates --------------------------------------

    def _flush_conflicts(self, cycle):
        """Check the conflict terminations of the previous event cycle were
        each displaced by a same-cycle establish."""
        pending, establishes = self._pending_conflicts, self._establishes
        if pending:
            for (ev_cycle, router, in_port, out_port, reason) in pending:
                if reason is Termination.CONFLICT_OUTPUT:
                    displaced = any(r == router and o == out_port
                                    and p != in_port
                                    for _, r, p, o in establishes)
                else:  # CONFLICT_INPUT: same input went elsewhere
                    displaced = any(r == router and p == in_port
                                    and o != out_port
                                    for _, r, p, o in establishes)
                if not displaced:
                    self.violation(
                        "pc_orphan_conflict",
                        f"{reason.value} termination without the "
                        f"same-cycle establish that displaces it",
                        cycle=ev_cycle, router=router, port=in_port,
                        expected="a displacing establish",
                        actual="none")
            pending.clear()
        if establishes:
            establishes.clear()

    def _enter_cycle(self, cycle):
        if cycle != self._event_cycle:
            self._flush_conflicts(cycle)
            self._event_cycle = cycle

    def on_pc_establish(self, cycle, router, in_port, in_vc, out_port,
                        refreshed):
        self._enter_cycle(cycle)
        shadow = self._regs[router][in_port]
        holders = self._holders[router]
        holder = holders[out_port]
        if holder not in (-1, in_port):
            self.violation(
                "pc_establish_conflict",
                f"establish on output {out_port} still held by input "
                f"{holder} (no CONFLICT_OUTPUT termination preceded it)",
                cycle=cycle, router=router, port=in_port,
                expected=f"holder in (-1, {in_port})", actual=holder)
            holders[out_port] = -1  # resync best-effort
        if shadow.valid and shadow.out_port != out_port:
            self.violation(
                "pc_establish_conflict",
                f"input still latched to output {shadow.out_port} (no "
                f"CONFLICT_INPUT termination preceded it)",
                cycle=cycle, router=router, port=in_port,
                expected="invalid register or same output",
                actual=f"valid -> {shadow.out_port}")
        expected_refresh = (shadow.valid and shadow.in_vc == in_vc
                            and shadow.out_port == out_port)
        if refreshed != expected_refresh:
            self.violation(
                "pc_refresh_flag",
                "establish refreshed flag contradicts prior circuit state",
                cycle=cycle, router=router, port=in_port, vc=in_vc,
                expected=expected_refresh, actual=refreshed)
        shadow.in_vc = in_vc
        shadow.out_port = out_port
        shadow.valid = True
        holders[out_port] = in_port
        if refreshed:
            self.refreshed += 1
        else:
            self.established += 1
        self._establishes.append((cycle, router, in_port, out_port))

    def on_pc_terminate(self, cycle, router, in_port, out_port, reason):
        self._enter_cycle(cycle)
        if not isinstance(reason, Termination):
            self.violation(
                "pc_termination_reason", "unknown termination reason",
                cycle=cycle, router=router, port=in_port,
                expected="a Termination member", actual=repr(reason))
        else:
            key = reason.value
            self.terminations[key] = self.terminations.get(key, 0) + 1
        shadow = self._regs[router][in_port]
        if not shadow.valid:
            self.violation(
                "pc_terminate_invalid",
                "termination of a circuit that was never established "
                "or already torn down",
                cycle=cycle, router=router, port=in_port,
                expected="a valid circuit", actual="invalid register")
        elif shadow.out_port != out_port:
            self.violation(
                "pc_terminate_mismatch",
                "termination names an output the circuit does not hold",
                cycle=cycle, router=router, port=in_port,
                expected=shadow.out_port, actual=out_port)
        shadow.valid = False
        holders = self._holders[router]
        if 0 <= out_port < len(holders) and holders[out_port] == in_port:
            holders[out_port] = -1
        if reason in (Termination.CONFLICT_OUTPUT,
                      Termination.CONFLICT_INPUT):
            self._pending_conflicts.append(
                (cycle, router, in_port, out_port, reason))

    def on_pc_restore(self, cycle, router, in_port, out_port):
        self._enter_cycle(cycle)
        shadow = self._regs[router][in_port]
        holders = self._holders[router]
        if shadow.valid:
            self.violation(
                "pc_restore_valid",
                "speculative restore of a circuit that is still valid",
                cycle=cycle, router=router, port=in_port,
                expected="an invalidated register", actual="valid")
        elif shadow.in_vc < 0 or shadow.out_port != out_port:
            self.violation(
                "pc_restore_mismatch",
                "restore does not match the invalidated register contents",
                cycle=cycle, router=router, port=in_port,
                expected=(shadow.in_vc, shadow.out_port),
                actual=out_port)
        if holders[out_port] != -1:
            self.violation(
                "pc_restore_conflict",
                f"restore on output {out_port} still held by input "
                f"{holders[out_port]}",
                cycle=cycle, router=router, port=in_port,
                expected=-1, actual=holders[out_port])
        out = self._network.routers[router].out_ports[out_port]
        if not out.any_credit():
            self.violation(
                "pc_restore_no_credit",
                "speculative restore on a creditless output "
                "(Section IV.A requires credits downstream)",
                cycle=cycle, router=router, port=in_port,
                expected="credits available", actual=0)
        shadow.valid = True
        holders[out_port] = in_port
        self.restored += 1

    # -- traversal rules ------------------------------------------------------

    def on_traverse(self, cycle, router, in_port, vc, out_port, via, read,
                    flit):
        self._enter_cycle(cycle)
        self.hops[router] += 1
        if via == "sa":
            return
        self.sa_bypass[router] += 1
        shadow = self._regs[router][in_port]
        if not (shadow.valid and shadow.in_vc == vc
                and shadow.out_port == out_port):
            self.violation(
                "pc_bypass_without_circuit",
                f"'{via}' traversal without a matching valid circuit",
                cycle=cycle, router=router, port=in_port, vc=vc,
                expected=f"valid circuit vc={vc} out={out_port}",
                actual=(shadow.valid, shadow.in_vc, shadow.out_port))
        if via == "buf":
            self.buf_bypass[router] += 1
            buffer_q = (self._network.routers[router]
                        .in_ports[in_port].vcs[vc].buffer)
            if buffer_q:
                self.violation(
                    "pc_bypass_nonempty_buffer",
                    "buffer bypass with flits still buffered on the VC",
                    cycle=cycle, router=router, port=in_port, vc=vc,
                    expected=0, actual=len(buffer_q))

    # -- cycle-boundary scan --------------------------------------------------

    def on_cycle_start(self, cycle, network):
        self._flush_conflicts(cycle)
        self._event_cycle = cycle
        self.scans += 1
        regs_all = self._regs
        holders_all = self._holders
        for router in network.routers:
            rid = router.router_id
            shadow_regs = regs_all[rid]
            shadow_holders = holders_all[rid]
            seen: dict[int, int] = {}
            for i, ip in enumerate(router.in_ports):
                reg = ip.pc
                shadow = shadow_regs[i]
                if (reg.valid != shadow.valid
                        or reg.in_vc != shadow.in_vc
                        or reg.out_port != shadow.out_port):
                    self.violation(
                        "pc_state_drift",
                        "pseudo-circuit register diverged from the "
                        "event-stream shadow",
                        cycle=cycle, router=rid, port=i,
                        expected=(shadow.valid, shadow.in_vc,
                                  shadow.out_port),
                        actual=(reg.valid, reg.in_vc, reg.out_port))
                if reg.valid:
                    prev = seen.get(reg.out_port)
                    if prev is not None:
                        self.violation(
                            "pc_output_conflict",
                            f"inputs {prev} and {i} both latched to "
                            f"output {reg.out_port}",
                            cycle=cycle, router=rid, port=i,
                            expected="one circuit per output",
                            actual=f"inputs ({prev}, {i})")
                    seen[reg.out_port] = i
            for out in router.out_ports:
                port_id = out.port_id
                expected = shadow_holders[port_id]
                if out.pc_holder != expected:
                    self.violation(
                        "pc_holder_drift",
                        "output pc_holder diverged from the event-stream "
                        "shadow",
                        cycle=cycle, router=rid, port=port_id,
                        expected=expected, actual=out.pc_holder)

    # -- end of run -----------------------------------------------------------

    def finish(self, network):
        self._flush_conflicts(network.cycle)
        stats = network.stats
        checks = (
            ("sa_bypass_flits", stats.sa_bypass_flits,
             sum(self.sa_bypass)),
            ("buf_bypass_flits", stats.buf_bypass_flits,
             sum(self.buf_bypass)),
            ("flit_hops", stats.flit_hops, sum(self.hops)),
            ("pc_established", stats.pc_established, self.established),
            ("pc_restored", stats.pc_restored, self.restored),
        )
        for name, from_stats, from_monitor in checks:
            if from_stats != from_monitor:
                self.violation(
                    "stats_mismatch",
                    f"monitor {name} diverged from NetworkStats",
                    cycle=network.cycle, expected=from_stats,
                    actual=from_monitor)
        aggregate = {reason.value: count
                     for reason, count in stats.pc_terminations.items()
                     if count}
        if aggregate != self.terminations:
            self.violation(
                "stats_mismatch",
                "monitor termination counts diverged from NetworkStats",
                cycle=network.cycle, expected=aggregate,
                actual=self.terminations)

    def snapshot(self) -> dict:
        hops = sum(self.hops)
        per_router = []
        for rid, n in enumerate(self.hops):
            if n:
                per_router.append({
                    "router": rid,
                    "hops": n,
                    "reuse_rate": round(self.sa_bypass[rid] / n, 6),
                    "buffer_bypass_rate": round(
                        self.buf_bypass[rid] / n, 6),
                })
        return {
            "flit_hops": hops,
            "reuse_rate": round(sum(self.sa_bypass) / hops, 6)
            if hops else 0.0,
            "buffer_bypass_rate": round(sum(self.buf_bypass) / hops, 6)
            if hops else 0.0,
            "established": self.established,
            "refreshed": self.refreshed,
            "restored": self.restored,
            "terminations": dict(self.terminations),
            "scans": self.scans,
            "per_router": per_router,
            "violations": len(self.violations),
        }
