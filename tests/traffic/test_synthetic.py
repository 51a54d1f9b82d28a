"""Unit tests for synthetic traffic patterns."""

import random

import pytest

from repro.traffic.synthetic import (PAPER_PATTERNS, SyntheticTraffic,
                                     destination_function)


class FakeNetwork:
    def __init__(self):
        self.packets = []

    def inject(self, packet):
        self.packets.append(packet)


RNG = random.Random(0)


class TestPatterns:
    def test_bit_complement(self):
        f = destination_function("bitcomp", 64)
        assert f(0, RNG) == 63
        assert f(21, RNG) == 42
        assert f(63, RNG) == 0

    def test_transpose(self):
        f = destination_function("transpose", 64)
        # src = (x=5, y=2) -> dst = (x=2, y=5): 2*8+5=21 maps to 5*8+2=42.
        assert f(0b010101, RNG) == 0b101010
        assert f(0, RNG) is None  # diagonal maps to itself

    def test_uniform_excludes_self(self):
        f = destination_function("uniform", 16)
        rng = random.Random(4)
        for src in range(16):
            for _ in range(50):
                assert f(src, rng) != src

    def test_tornado(self):
        f = destination_function("tornado", 64)
        assert f(0, RNG) == 31
        assert f(40, RNG) == 7

    def test_shuffle(self):
        f = destination_function("shuffle", 8)
        assert f(0b011, RNG) == 0b110
        assert f(0b100, RNG) == 0b001

    def test_neighbor(self):
        f = destination_function("neighbor", 8)
        assert f(7, RNG) == 0

    def test_non_power_of_two_rejected_for_bit_patterns(self):
        with pytest.raises(ValueError):
            destination_function("bitcomp", 60)

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            destination_function("zigzag", 16)

    def test_paper_patterns_present(self):
        assert set(PAPER_PATTERNS) == {"uniform", "bitcomp", "transpose"}


class TestInjectionProcess:
    def test_offered_load_accounting(self):
        traffic = SyntheticTraffic("uniform", 64, rate=0.2, packet_size=5,
                                   seed=1)
        net = FakeNetwork()
        for cycle in range(1000):
            traffic.tick(net, cycle)
        flits = sum(p.size for p in net.packets)
        load = flits / (1000 * 64)
        assert 0.16 < load < 0.24  # Bernoulli noise around 0.2

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            SyntheticTraffic("uniform", 64, rate=1.5)

    def test_packets_carry_creation_cycle(self):
        traffic = SyntheticTraffic("uniform", 16, rate=1.0, packet_size=1,
                                   seed=2)
        net = FakeNetwork()
        traffic.tick(net, 7)
        assert net.packets
        assert all(p.create_cycle == 7 for p in net.packets)

    def test_deterministic_given_seed(self):
        def gen(seed):
            traffic = SyntheticTraffic("uniform", 16, 0.5, 1, seed=seed)
            net = FakeNetwork()
            for c in range(50):
                traffic.tick(net, c)
            return [(p.src, p.dst) for p in net.packets]
        assert gen(9) == gen(9)
        assert gen(9) != gen(10)


class TestInjectionLookahead:
    """The fast-forward contract behind low-load cycle skipping."""

    def _every_cycle(self, seed, cycles=400, rate=0.02):
        traffic = SyntheticTraffic("uniform", 16, rate, 5, seed=seed)
        net = FakeNetwork()
        for c in range(cycles):
            traffic.tick(net, c)
        return [(p.create_cycle, p.src, p.dst) for p in net.packets]

    def test_skipping_idle_cycles_is_bit_identical(self):
        reference = self._every_cycle(3)
        traffic = SyntheticTraffic("uniform", 16, 0.02, 5, seed=3)
        net = FakeNetwork()
        c = 0
        while c < 400:
            traffic.tick(net, c)
            nxt = traffic.next_injection_cycle(c)
            # One-sided contract: never later than the true next
            # injection, so jumping straight there skips only cycles
            # that inject nothing.
            c = max(c + 1, nxt)
        got = [(p.create_cycle, p.src, p.dst) for p in net.packets]
        assert got == reference

    def test_never_later_than_true_next_injection(self):
        reference = self._every_cycle(5, cycles=600)
        injection_cycles = sorted({c for c, _, _ in reference})
        traffic = SyntheticTraffic("uniform", 16, 0.02, 5, seed=5)
        net = FakeNetwork()
        for c in range(600):
            nxt = traffic.next_injection_cycle(c)
            true_next = next((i for i in injection_cycles if i >= c), None)
            if true_next is not None:
                assert nxt <= true_next, (c, nxt, true_next)
            traffic.tick(net, c)

    def test_rate_zero_never_injects(self):
        traffic = SyntheticTraffic("uniform", 16, 0.0, 5, seed=1)
        assert traffic.next_injection_cycle(0) is None

    def test_lookahead_horizon_bounds_each_call(self):
        traffic = SyntheticTraffic("uniform", 16, 1e-9, 5, seed=1)
        nxt = traffic.next_injection_cycle(0, lookahead=64)
        assert nxt is not None and nxt <= 65


class TestRowsOfUntickedCycles:
    """A row drawn ahead for a cycle the driver then never ticks (the run
    ended first) was never offered: a later run must not trip over it."""

    def _second_run(self, net, stepped):
        traffic = SyntheticTraffic("uniform", 64, 0.002, 5, seed=3)
        net.run(2000, traffic)
        net.drain()
        net.run(500)
        assert traffic._drawn and min(traffic._drawn) < net.cycle
        start, before = net.cycle, stepped()
        net.run(3000, traffic)
        assert net.cycle == start + 3000
        return traffic, stepped() - before

    def _check(self, net, stepped):
        """``stepped()``: the cycles ``net`` has run, not skipped."""
        traffic, stepped = self._second_run(net, stepped)
        # The idle stretches were skipped again, and nothing below the
        # clock is left to answer ``next_injection_cycle`` with.
        assert 0 < stepped < 2000
        assert all(cycle >= net.cycle for cycle in traffic._drawn)
        assert traffic.next_injection_cycle(net.cycle) >= net.cycle

    def test_scalar(self):
        from repro.network.config import PSEUDO_SB, NetworkConfig
        from repro.network.simulator import Network
        from repro.topology import make_topology
        net = Network(make_topology("mesh", 8, 8, 1),
                      NetworkConfig(pseudo=PSEUDO_SB), seed=7)
        calls = []
        step = net.step
        net.step = lambda: (calls.append(net.cycle), step())
        self._check(net, lambda: len(calls))

    def test_vectorized(self):
        pytest.importorskip("numpy")
        from repro.network.backend import BackendUnsupportedError
        from repro.network.config import PSEUDO_SB, NetworkConfig
        from repro.network.vectorized import VectorNetwork
        from repro.topology import make_topology
        try:
            net = VectorNetwork(make_topology("mesh", 8, 8, 1),
                                NetworkConfig(pseudo=PSEUDO_SB), seed=7)
        except BackendUnsupportedError as err:
            pytest.skip(str(err))
        net.enable_profile()    # the kernel runs the window: it counts
        self._check(net, lambda: net.profile()["stepped_cycles"])

    def test_tick_drops_them_and_offers_the_rest(self):
        traffic = SyntheticTraffic("neighbor", 4, 1.0, 1, seed=1)
        traffic.next_injection_cycle(0)
        traffic.next_injection_cycle(3)     # rows for cycles 0..3 wait
        assert sorted(traffic._drawn) == [0, 1, 2, 3]
        net = FakeNetwork()
        traffic.tick(net, 2)
        assert [(p.create_cycle, p.src) for p in net.packets] == [
            (2, 0), (2, 1), (2, 2), (2, 3)]
        assert sorted(traffic._drawn) == [3] and traffic.generated == 4
