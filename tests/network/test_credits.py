"""Credit-based flow control, through the network.

A credit count is an int on each ``OutVC`` (``credits``, at most
``limit``): a traversal takes one, and the downstream input port's
``credit_due`` deque returns it ``credit_delay`` cycles later. A count
moved out of range raises ``CreditError`` at the one site that moved it —
router credit delivery, ``_traverse``, NIC injection, NIC ejection —
naming the rule, the edge and the cycle.
"""

from collections import defaultdict

import pytest

from repro.instrument.probe import Probe
from repro.network.config import NetworkConfig
from repro.network.credits import CreditError, credit_error
from repro.network.flit import Packet
from repro.network.ports import OutVC
from repro.network.simulator import Network
from repro.topology.mesh import Mesh
from repro.traffic.synthetic import SyntheticTraffic


def line(**config):
    """A 4x2 mesh carrying one 5-flit packet from terminal 0 to 3."""
    net = Network(Mesh(4, 2), NetworkConfig(**config), "xy", "dynamic",
                  seed=1)
    net.inject(Packet(0, 3, 5, 0))
    return net


def loaded(cycles=200, rate=0.3, **config):
    """A 4x4 mesh after ``cycles`` of uniform traffic, not drained."""
    net = Network(Mesh(4, 4), NetworkConfig(**config), "xy", "dynamic",
                  seed=1)
    net.run(cycles, SyntheticTraffic("uniform", 16, rate, 5, seed=1))
    return net


def step_until(net, find, limit=50):
    """Step ``net`` until ``find(net)`` answers something; return it."""
    for _ in range(limit):
        net.step()
        found = find(net)
        if found:
            return found
    raise AssertionError(f"nothing found in {limit} cycles")


def settle(net):
    """Drain ``net``, then let the credit returns still in flight land
    (they do not hold up quiescence)."""
    net.drain()
    for _ in range(net.config.credit_delay + 2):
        net.step()
    return net


def returning(net):
    """Router input ports (not the local one) with a credit in flight."""
    return [(r, ip) for r in net.routers for ip in r.in_ports
            if ip.credit_due and ip.port_id != 4]


def raised(net, limit=20):
    """Step until a ``CreditError``; it must name the cycle it broke in."""
    with pytest.raises(CreditError) as exc:
        for _ in range(limit):
            net.step()
    assert exc.value.cycle == net.cycle
    return exc.value


class CreditEvents(Probe):
    """Traversals and router-side credit returns, as (cycle, router,
    port, vc)."""

    def bind(self, network):
        self.traversals = []
        self.returns = []

    def on_traverse(self, cycle, router, in_port, vc, out_port, via, read,
                    flit):
        self.traversals.append((cycle, router, in_port, vc))

    def on_credit_restore(self, cycle, router, port, vc):
        if router >= 0:
            self.returns.append((cycle, router, port, vc))


def credit_events(cycles=150, **config):
    net = Network(Mesh(4, 4), NetworkConfig(**config), "xy", "dynamic",
                  seed=1)
    events = CreditEvents()
    net.bind_probe(events)
    net.run(cycles, SyntheticTraffic("uniform", 16, 0.3, 5, seed=1))
    return settle(net), events


def ovcs(net):
    for router in net.routers:
        for out in router.out_ports:
            for ep in out.endpoints:
                yield from ep.ovcs
    for nic in net.nics:
        yield from nic.inject_state.ovcs


class TestOutputVcCredits:
    def test_starts_full(self):
        net = line(buffer_depth=3, eject_buffer_depth=6)
        limits = {ovc.limit for ovc in ovcs(net)}
        assert limits == {3, 6}
        assert all(ovc.credits == ovc.limit for ovc in ovcs(net))

    def test_limit_validation(self):
        for field in ("buffer_depth", "eject_buffer_depth"):
            with pytest.raises(ValueError, match=field):
                NetworkConfig(**{field: 0})

    def test_consume_restore_cycle(self):
        net = line()
        east = net.routers[0].out_ports[0].endpoints[0].ovcs
        low = min(step_until(net, lambda n: [o.credits for o in east
                                             if o.credits < o.limit]))
        assert low < 4
        settle(net)
        assert all(ovc.credits == ovc.limit for ovc in ovcs(net))

    def test_underflow_raises(self):
        """``_traverse`` takes a credit from an emptied counter."""
        net = line()

        def active(net):
            return [vc for r in net.routers for ip in r.in_ports
                    for vc in ip.vcs if vc.buffer and vc.out_ovc_obj]
        ovc = step_until(net, active)[0].out_ovc_obj
        ovc.credits = -1
        err = raised(net)
        assert err.rule == "credit_underflow" and err.actual == -1
        assert (err.router, err.port, err.vc) == ovc.where
        assert ovc.where[0] >= 0

    def test_overflow_raises(self):
        """Router credit delivery returns a credit to a full counter."""
        net = line()
        router, ip = step_until(net, returning)[0]
        vc = ip.credit_due[0][1]
        ovc = ip.upstream.ovcs[vc]
        ovc.credits = ovc.limit
        err = raised(net)
        assert err.rule == "credit_overflow"
        assert (err.router, err.port, err.vc) == ovc.where == (
            router.router_id, ip.port_id, vc)

    def test_nic_inject_underflow_names_the_edge(self):
        net = line()
        nic = net.nics[0]
        vc = step_until(net, lambda n: list(nic._sending))[0]
        nic.inject_state.ovcs[vc].credits = -1
        err = raised(net)
        assert err.rule == "credit_underflow"
        assert (err.router, err.port, err.vc) == (-1, 0, vc)


class TestCreditChannel:
    def test_delay_respected(self):
        """Each traversal's credit lands upstream ``credit_delay`` cycles
        later, at the port and VC it left."""
        _, events = credit_events(credit_delay=3)
        assert sorted(events.returns) == sorted(
            (cycle + 3, r, port, vc)
            for cycle, r, port, vc in events.traversals)

    def test_zero_delay(self):
        """With no delay a credit lands in the next cycle's delivery
        phase, the first one after its traversal."""
        net, events = credit_events(credit_delay=0)
        assert sorted(events.returns) == sorted(
            (cycle + 1, r, port, vc)
            for cycle, r, port, vc in events.traversals)
        assert all(ovc.credits == ovc.limit for ovc in ovcs(net))

    def test_batched_delivery_in_order(self):
        """A port's credits come back in the order its flits left."""
        _, events = credit_events(credit_delay=2)
        sent, back = defaultdict(list), defaultdict(list)
        for _, r, port, vc in events.traversals:
            sent[r, port].append(vc)
        for _, r, port, vc in events.returns:
            back[r, port].append(vc)
        assert sent == back and sent

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="credit_delay"):
            NetworkConfig(credit_delay=-1)

    def test_pending_count(self):
        net = Network(Mesh(4, 4), NetworkConfig(credit_delay=4), "xy",
                      "dynamic", seed=1)
        traffic = SyntheticTraffic("uniform", 16, 0.3, 5, seed=1)
        for cycle in range(100):
            traffic.tick(net, cycle)
            net.step()
            for router in net.routers:
                dues = [len(ip.credit_due) for ip in router.in_ports]
                assert router._pending_credits == sum(dues)
                assert router._credit_mask == sum(
                    1 << i for i, n in enumerate(dues) if n)


class TestCreditChannelEdgeCases:
    """Returns due together, in flight across cycles, and at the limits."""

    def test_equal_due_cycles_deliver_in_send_order(self):
        """Credits of several ports due in one cycle all land in it."""
        _, events = credit_events(credit_delay=2)
        per_cycle = defaultdict(int)
        for cycle, r, _, _ in events.returns:
            per_cycle[cycle, r] += 1
        assert max(per_cycle.values()) > 1

    def test_deliver_stops_at_the_first_future_credit(self):
        net = loaded(cycles=60, credit_delay=4)
        waiting = 0
        for _ in range(40):
            net.step()
            for router in net.routers:
                for ip in router.in_ports:
                    assert all(due >= net.cycle for due, _ in ip.credit_due)
                    waiting += len(ip.credit_due) > 1
        assert waiting

    def test_zero_delay_same_cycle_round_trip(self):
        """A zero-delay return is due in the cycle its flit left, so the
        next cycle's delivery phase lands it."""
        net = line(credit_delay=0)
        _, ip = step_until(net, returning)[0]
        assert [due for due, _ in ip.credit_due] == [net.cycle - 1]
        net.step()
        assert all(due == net.cycle - 1 for due, _ in ip.credit_due)

    def test_deliver_on_empty_channel(self):
        net = line()
        router = net.routers[2]
        assert router._pending_credits == 0
        router.deliver_credits(0)
        assert all(ovc.credits == ovc.limit for ovc in ovcs(net))

    def test_next_due_on_empty_channel_raises(self):
        with pytest.raises(ValueError):
            line().routers[0].next_credit_cycle()

    def test_restore_past_limit_names_the_edge(self):
        """NIC ejection returns a credit to a full counter: the edge is
        the router's ejection output into terminal 3's NIC."""
        net = line()
        nic = net.nics[3]
        vc = step_until(net, lambda n: list(nic._eject_credit_due))[0][1]
        ovc = nic.eject_endpoint.ovcs[vc]
        ovc.credits = ovc.limit
        err = raised(net)
        assert err.rule == "credit_overflow" and err.actual == ovc.limit
        assert (err.router, err.port, err.vc) == (-1, 3, vc)

    def test_underflow_without_where_has_no_location(self):
        ovc = OutVC(1)
        ovc.credits = 0
        err = credit_error(ovc, cycle=7)
        assert err.rule == "credit_underflow" and err.cycle == 7
        assert err.router is None and err.port is None

    def test_full_drain_and_refill_cycle_via_channel(self):
        """Saturated, then drained: every counter back at its limit, no
        return left in flight."""
        net = loaded(rate=0.6, buffer_depth=2)
        assert any(ovc.credits == 0 for ovc in ovcs(net))
        settle(net)
        assert all(ovc.credits == ovc.limit for ovc in ovcs(net))
        for router in net.routers:
            assert router._pending_credits == 0
            assert not any(ip.credit_due for ip in router.in_ports)
