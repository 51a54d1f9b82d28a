"""The scalar core's exhaustive stepping, kept as the tests' oracle.

``Network.step`` touches only the components that registered work and
``run`` / ``drain`` / ``fast_forward`` skip quiescent stretches. The loop
here does neither: every router, NIC and link is visited every cycle, in
index order and in ``Network.step``'s phase order, and the clock never
jumps. A component's registrations still land in the network's active
sets, but nothing here reads them, so a registration the active-set core
misses shows up as a difference between the two.
"""

from repro.traffic.trace import TraceReplayTraffic


def exhaustive_step(net) -> None:
    """Advance ``net`` by one cycle, visiting every component."""
    cycle = net.cycle
    probe = net.probe
    if probe is not None:
        probe.on_cycle_start(cycle, net)
    routers = net.routers
    for router in routers:
        router.deliver_credits(cycle)
    for nic in net.nics:
        nic.tick_eject(cycle, net)
    for link in net.links:
        if link.in_flight:
            link.tick(cycle, routers)
    for router in routers:
        router.step(cycle)
    for nic in net.nics:
        nic.tick_inject(cycle)
    net.cycle = cycle + 1


def quiescent(net) -> bool:
    """Every NIC idle and every injected packet ejected."""
    stats = net.stats
    return (all(nic.idle for nic in net.nics)
            and stats.injected_packets == stats.ejected_packets)


def run_and_drain(net, cycles: int, traffic=None,
                  max_cycles: int = 1_000_000):
    """``net.run(cycles, traffic)`` then ``net.drain(max_cycles)``, one
    exhaustive cycle at a time; returns ``net.stats``."""
    end = net.cycle + cycles
    while net.cycle < end:
        if traffic is not None:
            traffic.tick(net, net.cycle)
        exhaustive_step(net)
    deadline = net.cycle + max_cycles
    while not quiescent(net):
        if net.cycle >= deadline:
            raise RuntimeError(
                f"network failed to drain within {max_cycles} cycles")
        exhaustive_step(net)
    return net.stats


def replay(net, trace, max_cycles: int = 500_000):
    """``net.run`` of ``trace`` over its replay's ``horizon``, then
    ``net.drain``, one exhaustive cycle at a time."""
    traffic = TraceReplayTraffic(trace)
    return run_and_drain(net, traffic.horizon, traffic, max_cycles)
