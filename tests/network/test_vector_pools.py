"""The array core's packet and flit pools follow what is in flight.

A packet slot and its contiguous flit block live exactly as long as the
packet (``vectorized/core.py`` "pools"): the compiled cycle returns them
to the free stacks when the tail is reassembled, and ``inject`` (the
slot) and the kernel's packet start (the block) take a free one before
bumping the high-water mark. Three things are pinned here:

* **Seeded mutants.** A slot freed one cycle early, a leaked slot and a
  block handed out for the wrong size — each seeded into the free stacks
  the kernel and ``inject`` share — are each caught by
  ``VectorInvariantChecker``'s pool invariant in the cycle they happen,
  with the lane and port named, on a solo and on a 4-lane chip.
* **Plateau.** Capacity ends within twice the peak in flight however
  many packets were injected; mixed 1-/5-flit traffic reuses both size
  classes; per-terminal state (NIC RNGs) exists only where it is used.
* **Contract.** A slot, new, grown or free, reads its initial values;
  the ``Packet`` handed to ``inject`` gets its fields written back at
  ejection and is then released; results equal the scalar core's.
"""

from collections import Counter

import pytest

np = pytest.importorskip("numpy")

from repro.core.violation import InvariantViolation
from repro.harness.experiment import (ExperimentConfig,
                                      run_batch_experiments, run_experiment)
from repro.harness.traces import get_trace
from repro.network.config import PSEUDO_SB, NetworkConfig
from repro.network.flit import Packet
from repro.network.simulator import Network
from repro.network.vectorized import (BatchNetwork, VectorInvariantChecker,
                                      VectorNetwork)
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic

from .test_batched_parity import lane_sink
from .test_vectorized_parity import CONCENTRATED, _run


def _chip(cls, rate=0.1, **kw):
    """A 4x4 Pseudo+S+B chip with one uniform 5-flit source per lane,
    and the function that ticks every source for the current cycle."""
    topo = make_topology("mesh", 4, 4, 1)
    net = cls(topo, NetworkConfig(pseudo=PSEUDO_SB), **kw)
    sinks = ([net] if cls is VectorNetwork else
             [lane_sink(net, lane) for lane in range(net.lanes)])
    sources = [SyntheticTraffic("uniform", topo.num_terminals, rate, 5,
                                seed=3 + lane)
               for lane in range(len(sinks))]

    def tick():
        for source, sink in zip(sources, sinks):
            source.tick(sink, net.cycle)
    return net, tick


def _nic(net, t):
    """(router, port) of terminal ``t``'s injection port, lane-local."""
    local = int(net._lay.inj_ipid[t]) % (net._NIP // net._lanes)
    return divmod(local, net._Pi)


# Each mutant looks at the chip after this cycle's injections and either
# seeds its fault (returning what the checker must report) or waits for
# a cycle where the fault is unambiguous; ``lane`` is where it must hit.

def _push_packet(net, pk):
    """Put slot ``pk`` on the free-packet stack."""
    top = net._state[net._S_P_FREE]
    net.p_free[top] = pk
    net._state[net._S_P_FREE] = top + 1


def _push_block(net, size, fid0):
    """Put the block starting at ``fid0`` on the stack of ``size``."""
    net.f_link[fid0] = net.fb_head[size]
    net.fb_head[size] = fid0


def _pop_block(net, size):
    net.fb_head[size] = net.f_link[net.fb_head[size]]


def _free_early(net, lane):
    """A tail still one cycle from its NIC gives its slot and block back
    now. Waits for empty source queues, so the step cannot re-issue the
    block before the sweep sees it."""
    if net._num_queued:
        return None
    row, (terms, fids) = net._rings["ejections"]
    for slot in range(net._RD):
        if slot == net.cycle % net._RD:
            continue    # due now: the step would free it properly
        due = int(net.ring_n[row, slot])
        for t, fid in zip(terms[slot, :due].tolist(),
                          fids[slot, :due].tolist()):
            if net.f_tail[fid] and t // net._T_local == lane:
                pk = int(net.f_pkt[fid])
                size = int(net.p_size[pk])
                _push_packet(net, pk)
                _push_block(net, size, fid - size + 1)
                local = int(net._lay.ej_opid[t]) % (net._NOP // net._lanes)
                return ("pool_reference", *divmod(local, net._Po),
                        int(net.f_vc[fid]))
    return None


def _leak(net, lane):
    """An ejected packet's slot and block never reach the free stacks."""
    free = net._free_packets().tolist()
    for pk in free:
        if net.p_src[pk] // net._T_local == lane and net.fb_head[5] >= 0:
            free.remove(pk)
            net.p_free[:len(free)] = free
            net._state[net._S_P_FREE] = len(free)
            _pop_block(net, 5)
            return ("pool_accounting", *_nic(net, net.p_src[pk]), None)
    return None


def _wrong_size(net, lane):
    """The one packet starting this cycle finds a 1-flit block on top of
    the 5-flit stack. Waits for a cycle in which no tail is ejected: its
    block would go on top of that one first."""
    ready = [t for t in (net.q_head >= 0).nonzero()[0].tolist()
             if net.cred_free[net._NOVC + t * net._V:][:net._V].any()]
    fid0 = net._nflits
    row, (_, fids) = net._rings["ejections"]
    slot = net.cycle % net._RD
    if (len(ready) != 1 or ready[0] // net._T_local != lane
            or fid0 + 5 > net._fcap
            or net.f_tail[fids[slot, :net.ring_n[row, slot]]].any()):
        return None
    net._state[net._S_FLITS] = fid0 + 1     # a new block of one flit
    net.f_head[fid0] = net.f_tail[fid0] = True
    _push_block(net, 5, fid0)
    return ("pool_reference", *_nic(net, ready[0]), None)


class TestSeededMutants:
    @pytest.mark.parametrize("cls,kw,lane", [
        (VectorNetwork, {}, 0),
        (BatchNetwork, {"seeds": (1, 2, 3, 4)}, 2),
    ], ids=["solo", "4-lane"])
    @pytest.mark.parametrize("mutant", [_free_early, _leak, _wrong_size])
    def test_checker_names_the_fault_in_the_cycle_it_happens(
            self, mutant, cls, kw, lane):
        net, tick = _chip(cls, **kw)
        net.attach_checker(VectorInvariantChecker(strict=True))
        for _ in range(60):     # clean so far, free lists populated
            tick()
            net.step()
        for _ in range(400):
            tick()
            expected = mutant(net, lane)
            if expected is not None:
                break
            net.step()
        assert expected is not None, "no cycle offered the fault"
        c = net.cycle
        with pytest.raises(InvariantViolation) as caught:
            net.step()
        v = caught.value
        rule, router, port, vc = expected
        assert (v.rule, v.cycle) == (rule, c)
        assert v.lane == (lane if net._lanes > 1 else None)
        assert (v.router, v.port) == (router, port)
        if vc is not None:
            assert v.vc == vc


class TestPlateau:
    def test_capacity_follows_the_peak_in_flight_not_the_injected(self):
        net, tick = _chip(BatchNetwork, rate=0.3, seeds=range(16))
        pcap0, fcap0 = net._pcap, net._fcap
        peak = 0
        for _ in range(3000):
            tick()
            peak = max(peak, net.in_flight_packets())
            net.step()
        injected = sum(net.lane_stats(lane).injected_packets
                       for lane in range(net.lanes))
        assert injected > 20 * peak > 0
        assert net._npackets <= peak
        assert net._pcap <= max(pcap0, 2 * peak)
        assert net._nflits <= 5 * peak
        assert net._fcap <= max(fcap0, 2 * 5 * peak)
        net.drain()
        net.check_invariants()
        # Drained: every slot is free again and no Packet is retained.
        assert len(net._free_packets()) == net._npackets
        assert net.p_obj == {}
        assert 5 * len(net._free_blocks()[5]) == net._nflits

    def test_trace_replay_reuses_both_size_classes(self):
        topo_args, scheme, rate, cycles, kw = CONCENTRATED[
            "cmesh4x4-trace-mshrs"]
        net = _run(VectorNetwork, topo_args, scheme, rate, cycles, **kw)
        blocks = {size: len(free)
                  for size, free in net._free_blocks().items()}
        assert set(blocks) == {1, 5}
        assert blocks[1] + 5 * blocks[5] == net._nflits
        # Far fewer blocks of either size were ever made than packets of
        # that size were sent.
        sent = Counter(record.size for record in get_trace(
            kw["benchmark"], cycles=cycles, warmup=200,
            seed=7).records)
        assert sum(sent.values()) == net.stats.injected_packets
        assert sent[1] > 4 * blocks[1] and sent[5] > 4 * blocks[5]
        assert net.stats.injected_packets > 4 * net._npackets


class TestPerTerminalState:
    def _few_injections(self, cls, routing):
        """Five packets from three terminals; returns the drained net."""
        topo = make_topology("mesh", 4, 4, 1)
        net = cls(topo, NetworkConfig(pseudo=PSEUDO_SB), routing=routing,
                  seed=7)
        for src, dst in ((0, 15), (5, 2), (0, 3), (9, 6), (5, 12)):
            net.inject(Packet(src, dst, 5, net.cycle))
            net.step()
        net.drain()
        return net

    def test_xy_builds_no_nic_rng(self):
        net = self._few_injections(VectorNetwork, "xy")
        assert net.nic_rngs == {}

    def test_o1turn_builds_them_for_injecting_terminals_only(self):
        net = self._few_injections(VectorNetwork, "o1turn")
        assert set(net.nic_rngs) == {0, 5, 9}
        scalar = self._few_injections(Network, "o1turn")
        assert net.stats.fingerprint() == scalar.stats.fingerprint()

    def test_lanes_seed_their_own_terminals(self):
        topo = make_topology("mesh", 4, 4, 1)
        net = BatchNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                           routing="o1turn", seeds=(7, 8))
        solo = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                             routing="o1turn", seed=8)
        assert net._nic_seeds[topo.num_terminals:] == solo._nic_seeds


class TestSlotContract:
    def test_grown_and_reused_slots_read_their_initial_values(self):
        topo = make_topology("mesh", 4, 4, 1)
        net = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB))
        cap = net._pcap
        for _ in range(cap + 1):    # one source queue past the capacity
            net.inject(Packet(0, 1, 5, 0))
        assert net._pcap == 2 * cap
        assert (net.p_inject == -1).all()
        net.drain()
        assert net._fcap > 1024 or net._nflits <= 1024
        assert (net.f_vc[net._nflits:] == -1).all()
        # A free slot and a free block read their initial values again:
        # the next packet does not inherit what the last one gathered.
        assert (net.f_vc[:net._nflits] == -1).all()
        pk = int(net._free_packets()[-1])
        net.inject(Packet(0, 1, 5, net.cycle))
        assert net.q_tail[0] == pk
        assert [int(getattr(net, name)[pk]) for name in
                ("p_inject", "p_hops", "p_sa", "p_buf", "p_rx")] == [
                    -1, 0, 0, 0, 0]

    def test_packet_fields_are_written_back_then_released(self):
        topo = make_topology("mesh", 4, 4, 1)
        pairs = ((0, 15), (3, 12), (0, 15), (0, 15), (7, 8))
        fields = {}
        for cls in (Network, VectorNetwork):
            # Static VA keeps a flow on one VC, so its circuits get reused.
            net = cls(topo, NetworkConfig(pseudo=PSEUDO_SB),
                      vc_policy="static", seed=7)
            packets = [Packet(src, dst, 5, 0) for src, dst in pairs]
            for packet in packets:
                net.inject(packet)
            net.drain()
            fields[cls] = [(p.inject_cycle, p.eject_cycle, p.hops,
                            p.sa_bypass_hops, p.buf_bypass_hops)
                           for p in packets]
        assert fields[VectorNetwork] == fields[Network]
        assert all(eject > inject >= 0 and hops > 0
                   for inject, eject, hops, _, _ in fields[VectorNetwork])
        assert any(sa for *_, sa, _ in fields[VectorNetwork])
        assert net.p_obj == {} and net._npackets == len(pairs)


class TestPoolHighWaterInMetrics:
    _POINT = dict(topology="mesh", kx=4, ky=4, concentration=1,
                  routing="xy", scheme=PSEUDO_SB, pattern="uniform",
                  rate=0.25, synth_cycles=200, synth_warmup=40)

    def _high_water(self, result):
        doc = result.monitor_report["monitors"]["vector_invariants"]
        return doc["pool_high_water"]

    def test_vectorized_check_document(self):
        result = run_experiment(
            ExperimentConfig(backend="vectorized", seed=7, **self._POINT),
            check=True)
        mark = self._high_water(result)
        assert 0 < mark["packets"] < result.packets
        assert mark["packets"] <= mark["flits"] <= 5 * mark["packets"]

    def test_batched_check_document(self):
        results = run_batch_experiments(
            [ExperimentConfig(backend="auto", seed=seed, **self._POINT)
             for seed in (3, 11)], check=True)
        marks = [self._high_water(result) for result in results]
        assert marks[0] == marks[1]     # one chip, one pair of pools
        assert 0 < marks[0]["packets"] < sum(r.packets for r in results)
