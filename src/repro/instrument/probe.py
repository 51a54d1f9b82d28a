"""Probe interface: the event vocabulary of the instrumentation layer.

A probe receives the flit-lifecycle events the network components emit.
The null object is literally ``None``: components hold ``_probe = None``
when tracing is off and guard every emission with a single attribute test,
so the disabled hot path costs one pointer load per call site
(``python -m repro bench`` keeps this honest). Probes that are
attached (``Network.bind_probe``) receive every event of the simulation
they observe; they must never mutate what they are handed — the overhead
gate asserts stats stay bit-identical with probes on.

Event vocabulary (all cycles are simulation cycles; ``flit`` arguments are
live :class:`~repro.network.flit.Flit` objects, read-only):

========================  ==================================================
``on_buffer_write``       flit written into an input VC buffer (BW stage)
``on_va_grant``           output VC granted to a head flit (VA stage)
``on_traverse``           crossbar traversal: ``via`` is ``'sa'`` (arbitrated),
                          ``'pc'`` (SA bypass) or ``'buf'`` (buffer bypass);
                          ``read`` tells whether a buffer read happened
``on_link``               flit handed to the downstream input port (LT done)
``on_credit_restore``     credit return landed in the upstream counter of
                          (router, port, vc); ``router == -1`` marks the
                          NIC ejection side, with ``port`` the terminal id
``on_pc_establish``       pseudo-circuit latched (``refreshed`` = re-latch of
                          the identical connection)
``on_pc_restore``         speculative restoration of an invalidated circuit
``on_pc_terminate``       circuit torn down, with the ``Termination`` reason
``on_inject``             packet left its source queue into the network
``on_eject``              packet fully reassembled at its destination NIC
``on_cycle_start``        a simulated cycle is about to execute, before any
                          other event of that cycle (after a quiescence
                          fast-forward ``cycle`` jumps; window-based probes
                          close every skipped window here, which is exact:
                          skipped cycles are provably event-free)
``bind``                  called once when attached to a Network
========================  ==================================================
"""

from __future__ import annotations


class Probe:
    """Base probe: every hook is a no-op; subclasses override what they
    need. Attach with :meth:`repro.network.simulator.Network.bind_probe`."""

    def bind(self, network) -> None:
        """Called once when the probe is attached to a network."""

    # -- flit lifecycle -------------------------------------------------------

    def on_buffer_write(self, cycle: int, router: int, in_port: int,
                        vc: int, flit) -> None:
        pass

    def on_va_grant(self, cycle: int, router: int, in_port: int, vc: int,
                    out_port: int, out_vc: int, flit) -> None:
        pass

    def on_traverse(self, cycle: int, router: int, in_port: int, vc: int,
                    out_port: int, via: str, read: bool, flit) -> None:
        pass

    def on_link(self, cycle: int, link: int, router: int, in_port: int,
                flit) -> None:
        pass

    def on_credit_restore(self, cycle: int, router: int, port: int,
                          vc: int) -> None:
        pass

    # -- pseudo-circuit lifecycle ---------------------------------------------

    def on_pc_establish(self, cycle: int, router: int, in_port: int,
                        in_vc: int, out_port: int, refreshed: bool) -> None:
        pass

    def on_pc_restore(self, cycle: int, router: int, in_port: int,
                      out_port: int) -> None:
        pass

    def on_pc_terminate(self, cycle: int, router: int, in_port: int,
                        out_port: int, reason) -> None:
        pass

    # -- terminals ------------------------------------------------------------

    def on_inject(self, cycle: int, terminal: int, packet) -> None:
        pass

    def on_eject(self, cycle: int, terminal: int, packet) -> None:
        pass

    # -- clock ----------------------------------------------------------------

    def on_cycle_start(self, cycle: int, network) -> None:
        pass


class CompositeProbe(Probe):
    """Fan every event out to several probes (e.g. tracer + time series)."""

    def __init__(self, *probes: Probe):
        self.probes = tuple(probes)

    def bind(self, network) -> None:
        for p in self.probes:
            p.bind(network)

    def on_buffer_write(self, cycle, router, in_port, vc, flit):
        for p in self.probes:
            p.on_buffer_write(cycle, router, in_port, vc, flit)

    def on_va_grant(self, cycle, router, in_port, vc, out_port, out_vc,
                    flit):
        for p in self.probes:
            p.on_va_grant(cycle, router, in_port, vc, out_port, out_vc, flit)

    def on_traverse(self, cycle, router, in_port, vc, out_port, via, read,
                    flit):
        for p in self.probes:
            p.on_traverse(cycle, router, in_port, vc, out_port, via, read,
                          flit)

    def on_link(self, cycle, link, router, in_port, flit):
        for p in self.probes:
            p.on_link(cycle, link, router, in_port, flit)

    def on_credit_restore(self, cycle, router, port, vc):
        for p in self.probes:
            p.on_credit_restore(cycle, router, port, vc)

    def on_pc_establish(self, cycle, router, in_port, in_vc, out_port,
                        refreshed):
        for p in self.probes:
            p.on_pc_establish(cycle, router, in_port, in_vc, out_port,
                              refreshed)

    def on_pc_restore(self, cycle, router, in_port, out_port):
        for p in self.probes:
            p.on_pc_restore(cycle, router, in_port, out_port)

    def on_pc_terminate(self, cycle, router, in_port, out_port, reason):
        for p in self.probes:
            p.on_pc_terminate(cycle, router, in_port, out_port, reason)

    def on_inject(self, cycle, terminal, packet):
        for p in self.probes:
            p.on_inject(cycle, terminal, packet)

    def on_eject(self, cycle, terminal, packet):
        for p in self.probes:
            p.on_eject(cycle, terminal, packet)

    def on_cycle_start(self, cycle, network):
        for p in self.probes:
            p.on_cycle_start(cycle, network)
