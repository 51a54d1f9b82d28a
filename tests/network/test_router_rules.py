"""The router's rules, driven through both cores.

The pseudo-circuit rules (SA skip, speculation, buffer bypass) and the
buffer and VC rules under them are stated once per core: inline in
``Router.step`` / ``_traverse``, and in the phases of
``vectorized/kernel.c``. Their tests (this file, ``tests/core`` and the
router-level cases of ``tests/network``) drive them through ``Network``
with a :class:`RuleProbe` attached, which decides at every event whether
the rule behind it held and counts the cases the rules decided. Where the
kernel builds, a ``VectorNetwork`` runs in lockstep beside it: after every
cycle both must agree on the stats and on every circuit register, output
holder and history register, so one test pins ``router.py`` and
``kernel.c`` together.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict, deque

import pytest

from repro.instrument.probe import CompositeProbe, Probe
from repro.monitor import PseudoCircuitMonitor
from repro.network.config import (PC_SCHEMES, PSEUDO_B, PSEUDO_S,
                                  NetworkConfig)
from repro.network.flit import Packet
from repro.network.simulator import Network
from repro.network.vc import VCState
from repro.topology.mesh import Mesh
from repro.traffic.synthetic import SyntheticTraffic


def array_core():
    """``VectorNetwork`` when numpy is installed and the kernel builds on
    this machine, else None (the runs are then scalar only)."""
    try:
        from repro.network.vectorized import VectorNetwork, kernel
    except ImportError:
        return None
    return VectorNetwork if kernel.load().status.startswith("c:") else None


def circuits(net):
    """Every input's ``(valid, in_vc, out_port)`` register, then every
    output's ``(holder, history)``, routers in order, ports in order."""
    if isinstance(net, Network):
        return ([(ip.pc.valid, ip.pc.in_vc, ip.pc.out_port)
                 for router in net.routers for ip in router.in_ports],
                [(out.pc_holder, out.last_input)
                 for router in net.routers for out in router.out_ports])
    return (list(zip(net.pc_valid.tolist(), net.pc_in_vc.tolist(),
                     net.pc_out_port.tolist())),
            list(zip(net.op_holder.tolist(), net.op_hist.tolist())))


def _restorable(registers, out_port, but=-1):
    """Inputs whose invalidated register still names ``out_port``."""
    return [i for i, reg in enumerate(registers)
            if i != but and not reg.valid and reg.in_vc >= 0
            and reg.out_port == out_port]


class RuleProbe(Probe):
    """Checks each scalar event against the rule that produced it and
    counts, in ``cases``, the decisions the rules made."""

    def bind(self, network):
        self.net = network
        self.cases = Counter()
        self.depth = network.config.buffer_depth
        self.speculation = network.config.pseudo.speculation
        # (flit, the cycle it was written in) per (router, port, vc),
        # oldest first.
        self.buffered = defaultdict(deque)
        self.latched = {}

    def _port(self, router, in_port):
        return self.net.routers[router].in_ports[in_port]

    def on_buffer_write(self, cycle, router, in_port, vc, flit):
        ip = self._port(router, in_port)
        buffer = ip.vcs[vc].buffer
        assert buffer[-1] is flit and len(buffer) <= self.depth
        self.buffered[router, in_port, vc].append((flit, cycle))
        if len(buffer) == self.depth:
            self.cases["buffer_full"] += 1
        if ip.pc.in_vc == vc:
            # An arrival on the circuit's VC that is buffered after all.
            if not ip.pc.valid:
                self.cases["arrival_on_invalid_circuit"] += 1
            elif len(buffer) > 1:
                self.cases["arrival_behind_nonempty_vc"] += 1

    def on_va_grant(self, cycle, router, in_port, vc, out_port, out_vc,
                    flit):
        assert flit.is_head
        buffer = self._port(router, in_port).vcs[vc].buffer
        if buffer:
            # VA reads the front of the buffer and leaves it there.
            assert buffer[0] is flit
            self.cases["va_at_front"] += 1

    def on_traverse(self, cycle, router, in_port, vc, out_port, via, read,
                    flit):
        ip = self._port(router, in_port)
        channel = ip.vcs[vc]
        assert channel.state == VCState.ACTIVE
        assert channel.out_port == out_port
        self.cases["traversed"] += 1
        if read:
            written, at = self.buffered[router, in_port, vc].popleft()
            # Read no earlier than the cycle after its write.
            assert written is flit and at < cycle
            self.cases["read"] += 1
        else:
            assert via == "buf" and not channel.buffer
        kind = "head" if flit.is_head else "body"
        if via == "sa":
            return
        # The comparator matched: a head on VC and route, a body on VC
        # (its packet's route is the one its head latched).
        reg = ip.pc
        assert (reg.valid, reg.in_vc, reg.out_port) == (True, vc, out_port)
        self.cases[f"{'bypass' if via == 'buf' else 'reuse'}_{kind}"] += 1
        if via == "buf" and flit.is_tail and flit.is_head:
            self.cases["bypass_single_flit"] += 1

    def on_pc_establish(self, cycle, router, in_port, in_vc, out_port,
                        refreshed):
        reg = self._port(router, in_port).pc
        assert (reg.valid, reg.in_vc, reg.out_port) == (True, in_vc,
                                                         out_port)
        out = self.net.routers[router].out_ports[out_port]
        assert out.pc_holder == in_port
        before = self.latched.get((router, in_port))
        if before is not None and before != (in_vc, out_port):
            self.cases["register_overwritten"] += 1
        self.latched[router, in_port] = (in_vc, out_port)
        self.cases["established"] += 1

    def on_pc_terminate(self, cycle, router, in_port, out_port, reason):
        reg = self._port(router, in_port).pc
        # Only the valid bit clears: speculation needs the contents.
        assert not reg.valid and reg.in_vc >= 0
        assert reg.out_port == out_port
        out = self.net.routers[router].out_ports[out_port]
        assert out.last_input == in_port and out.pc_holder != in_port
        self.cases[reason.value] += 1

    def on_pc_restore(self, cycle, router, in_port, out_port):
        r = self.net.routers[router]
        registers = [ip.pc for ip in r.in_ports]
        reg = registers[in_port]
        out = r.out_ports[out_port]
        assert reg.valid and reg.out_port == out_port
        # What the input's last traversal latched, nothing else.
        assert self.latched[router, in_port] == (reg.in_vc, out_port)
        assert out.pc_holder == in_port
        assert out.any_credit(), "restored onto a creditless output"
        if _restorable(registers, out_port, but=in_port):
            assert in_port == out.last_input, "a tie the history lost"
            self.cases["restore_by_history"] += 1
        else:
            self.cases["restore_single"] += 1

    def after_step(self):
        """At the end of a cycle, on each router that ran its pipeline
        (it still holds flits): count the heads still waiting for an
        output VC, and check what speculation left unrestored — only
        held outputs, creditless ones, and ties the history names no
        part of."""
        for r in self.net.routers:
            if not r._buffered_flits:
                continue
            self.cases["waiting_in_va"] += sum(
                vc.state == VCState.VA for ip in r.in_ports for vc in ip.vcs)
            if not self.speculation:
                continue
            registers = [ip.pc for ip in r.in_ports]
            for o, out in enumerate(r.out_ports):
                waiting = _restorable(registers, o)
                if not waiting:
                    continue
                if out.pc_holder != -1:
                    self.cases["no_restore_held"] += 1
                elif not out.any_credit():
                    self.cases["no_restore_creditless"] += 1
                else:
                    assert len(waiting) > 1, "a lone circuit left invalid"
                    assert out.last_input not in waiting
                    self.cases["no_restore_without_history"] += 1


def lockstep(config, drive, *, probe=None, after_step=None):
    """Run ``drive(net)`` (a generator stepping ``net``) on a 4x4 mesh
    on the scalar core with ``probe`` attached (and ``after_step()``
    called after each of its cycles), and on the array core beside it
    where the kernel builds, comparing after every cycle; return the
    scalar network. VA is static (the paper's choice): a head then
    waits in VA for its one VC often, which is when only the empty-VC
    test refuses a bypass to the body behind it."""
    classes = [Network]
    vector = array_core()
    if vector is not None:
        classes.append(vector)
    nets = [cls(Mesh(4, 4), config, routing="xy", vc_policy="static",
                seed=5) for cls in classes]
    scalar = nets[0]
    if probe is not None:
        scalar.bind_probe(probe)
    for _ in zip(*(drive(net) for net in nets), strict=True):
        if after_step is not None:
            after_step()
        for other in nets[1:]:
            cycle = scalar.cycle - 1
            assert other.cycle == scalar.cycle
            assert other.stats.fingerprint() == \
                scalar.stats.fingerprint(), f"stats part at cycle {cycle}"
            assert circuits(other) == circuits(scalar), (
                f"circuits part at cycle {cycle}")
    for net in nets:
        assert net.quiescent()
        net.check_invariants()
    return scalar


def lone_flow(config):
    """One single-flit packet from terminal 0 to 3 along the bottom row
    of the 4x4 mesh, on both cores; returns the drained scalar
    network."""
    def drive(net):
        net.inject(Packet(0, 3, 1, 0))
        while not net.quiescent():
            net.step()
            yield
    return lockstep(config, drive)


def synthetic(pattern, rate, size, cycles):
    """``drive`` for :func:`lockstep`: ``cycles`` of synthetic traffic
    ticked by hand, then every cycle of the drain."""
    def drive(net):
        traffic = SyntheticTraffic(pattern, net.topology.num_terminals,
                                   rate, size, seed=5)
        for cycle in range(cycles):
            traffic.tick(net, cycle)
            net.step()
            yield
        while not net.quiescent():
            net.step()
            yield
    return drive


#: The runs the rule tests share: (config, pattern, rate, packet size,
#: cycles). Small buffers and few VCs keep outputs creditless often
#: enough for the credit rules to decide something.
SPECULATION = (NetworkConfig(num_vcs=2, buffer_depth=2, pseudo=PSEUDO_S),
               "uniform", 0.35, 5, 400)
BYPASS = (NetworkConfig(pseudo=PSEUDO_B), "uniform", 0.15, 5, 400)
SINGLE_FLIT_BYPASS = (NetworkConfig(pseudo=PSEUDO_B), "uniform", 0.15, 1,
                      400)


def scheme_run(scheme):
    """The run of one pseudo-circuit scheme near saturation."""
    return NetworkConfig(pseudo=scheme), "transpose", 0.3, 5, 300


@functools.lru_cache(maxsize=None)
def rule_cases(run) -> Counter:
    """The cases a :class:`RuleProbe` counted over ``run`` (one of the
    tuples above), every rule holding, both cores agreeing throughout
    and the strict circuit monitor silent."""
    config, pattern, rate, size, cycles = run
    rules = RuleProbe()
    lockstep(config, synthetic(pattern, rate, size, cycles),
             probe=CompositeProbe(rules, PseudoCircuitMonitor()),
             after_step=rules.after_step)
    return rules.cases


@pytest.mark.parametrize("scheme", PC_SCHEMES, ids=lambda s: s.label)
def test_every_scheme_agrees_on_circuits_and_rules(scheme):
    """Every pseudo-circuit scheme near saturation: both cores hold the
    same registers, holders and history every cycle, and every event
    obeys its rule."""
    cases = rule_cases(scheme_run(scheme))
    assert cases["established"] and cases["reuse_body"]
    assert bool(cases["bypass_head"]) == scheme.buffer_bypass
    restored = cases["restore_single"] + cases["restore_by_history"]
    assert bool(restored) == scheme.speculation
