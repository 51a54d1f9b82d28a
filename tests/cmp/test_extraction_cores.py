"""CMP trace extraction is one run on either network core.

``CmpSystem`` steps its network on the compiled core whenever that core
builds in the process (the ``auto`` refusal rule), else on the scalar
``Network``. The endpoints answer deliveries from inside the delivery
upcall (an ``INVAL`` by an ``INV_ACK``, a write's last ack by the
requests queued behind it): the scalar core runs those handlers between
a cycle's NIC ejections and its NIC starts, so a packet they send may
start in that same cycle, and the compiled cycle comes back to Python at
that point (``RUN_DELIVER``) instead of after the cycle. Pinned here:

* **A reply starts in the cycle its request ejects**, on both cores,
  compared after every cycle.
* **Extraction identity.** A default ``CmpSystem`` and one handed a
  scalar ``Network`` record equal traces (order included), summaries,
  ``NetworkStats`` and delivery logs: three profiles at two seeds, the
  concentration-1 checkerboard CMP and a Pseudo+S+B network.
* **No callback, no change.** A network with no delivery callback makes
  the calls into ``kernel.c``'s ``run()`` -- window, return code, the
  cycle each got to -- it made before the mid-cycle return existed, on
  a saturation point and a replayed trace point (SHA-256 of the call
  list, recorded on the commit before it).
* **The core that extracted is named**, and without a compiler the
  refusal with it.
"""

import hashlib

import pytest

np = pytest.importorskip("numpy")

from repro.cmp.messages import (INV_ACK, INVAL, READ_REQ, READ_RESP,
                                WRITE_ACK, WRITE_REQ)
from repro.cmp.system import CmpSystem
from repro.harness.traces import get_trace
from repro.network.config import PSEUDO_SB, NetworkConfig
from repro.network.flit import Packet
from repro.network.simulator import Network
from repro.network.vectorized import VectorNetwork, kernel
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic
from repro.traffic.trace import TraceReplayTraffic


@pytest.fixture(autouse=True)
def compiled(_private_kernel_cache):
    loaded = kernel.load()
    if not loaded.status.startswith("c:"):
        pytest.skip(f"no compiled cycle on this machine: {loaded.refusal()}")


# -- a reply starts in its request's cycle ------------------------------------

def test_a_reply_starts_in_the_cycle_its_request_ejects():
    """Every terminal answers a request with a one-flit reply from inside
    its delivery callback; both cores agree after every cycle, and every
    reply starts in the cycle its request ejects in."""
    nets = [cls(make_topology("mesh", 4, 4, 1), NetworkConfig(),
                routing="xy", seed=5) for cls in (Network, VectorNetwork)]
    pairs = {id(net): [] for net in nets}

    def answer(net):
        def callback(packet, cycle):
            if packet.msg_type == "request":
                reply = Packet(packet.dst, packet.src, 1, cycle,
                               msg_type="reply")
                net.inject(reply)
                pairs[id(net)].append((packet, reply))
        return callback

    for net in nets:
        for terminal in range(net.topology.num_terminals):
            net.attach_delivery(terminal, answer(net))
    for c in range(60):
        for net in nets:
            if c % 3 == 0:
                net.inject(Packet(c % 16, (c * 7 + 3) % 16, 5, net.cycle,
                                  msg_type="request"))
            net.step()
        scalar, vector = nets
        assert scalar.cycle == vector.cycle
        assert scalar.stats.fingerprint() == vector.stats.fingerprint(), c
    for net in nets:
        net.drain()
    timing = [[(request.eject_cycle, reply.inject_cycle, reply.eject_cycle)
               for request, reply in pairs[id(net)]] for net in nets]
    assert len(timing[0]) == 20 and timing[0] == timing[1]
    assert all(ejected == started for ejected, started, _ in timing[0])
    assert nets[0].stats == nets[1].stats


# -- extraction identity ------------------------------------------------------

def _paper_network(cls, seed, scheme=None):
    """``CmpSystem``'s default network, on core ``cls``."""
    config = NetworkConfig() if scheme is None else NetworkConfig(
        pseudo=scheme)
    return cls(make_topology("cmesh", 4, 4, 4), config, routing="o1turn",
               vc_policy="dynamic", seed=seed)


def _checkerboard(cls, seed):
    """``test_checkerboard_layout_on_plain_mesh``'s network."""
    return cls(make_topology("mesh", 8, 8, 1), NetworkConfig(), "xy",
               "dynamic", seed=seed)


def _pseudo_sb(cls, seed):
    return _paper_network(cls, seed, PSEUDO_SB)


#: The messages every case carries; ``streamcluster`` shares blocks, so
#: its writes invalidate: an ``INVAL`` sent from the handler of a write
#: request, its ``INV_ACK`` from the handler of the ``INVAL``.
_FLOWS = {READ_REQ, READ_RESP, WRITE_REQ, WRITE_ACK}

#: id -> (benchmark, seed, network builder -- ``None``: the default --,
#: the messages its deliveries must include).
CASES = {
    **{f"{bench}-seed{seed}": (bench, seed, None, _FLOWS)
       for bench in ("fma3d", "specjbb", "radix") for seed in (1, 7)},
    "streamcluster-seed1": ("streamcluster", 1, None,
                            _FLOWS | {INVAL, INV_ACK}),
    "checkerboard-fft": ("fft", 1, _checkerboard, _FLOWS),
    "pseudo_sb-radix": ("radix", 3, _pseudo_sb, _FLOWS),
}


def _extract(bench, seed, network):
    """A 500-cycle extraction after 150 of warm-up, and every delivery
    the endpoints were handed, in order: ``(cycle, terminal, src,
    msg_type)``."""
    system = CmpSystem(bench, network=network, seed=seed)
    log = []
    for terminal, endpoint in system._endpoint_by_terminal.items():
        def logged(owner, packet, cycle, terminal=terminal,
                   handle=endpoint.on_message):
            log.append((cycle, terminal, packet.src, packet.msg_type))
            handle(owner, packet, cycle)
        endpoint.on_message = logged
    system.run(500, record_trace=True, warmup=150)
    return system, log


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_extraction_is_identical_on_both_cores(case):
    bench, seed, build, flows = case
    fast, fast_log = _extract(bench, seed,
                              build and build(VectorNetwork, seed))
    slow, slow_log = _extract(bench, seed,
                              (build or _paper_network)(Network, seed))
    assert type(fast.network) is VectorNetwork
    assert len(fast.trace.records) > 100
    assert fast.trace.records == slow.trace.records
    summaries = [system.summary() for system in (fast, slow)]
    assert [s.pop("backend") for s in summaries] == ["vectorized", "scalar"]
    assert summaries[0] == summaries[1]
    assert fast.network.stats == slow.network.stats
    assert (fast.network.stats.latency_histogram
            == slow.network.stats.latency_histogram)
    assert fast.network.cycle == slow.network.cycle
    assert fast_log == slow_log
    assert flows <= {msg for *_, msg in fast_log}


def test_a_process_without_a_compiler_extracts_on_scalar(monkeypatch):
    fast, _ = _extract("radix", 1, None)
    monkeypatch.setenv("CC", "false")
    slow, _ = _extract("radix", 1, None)
    summary = slow.summary()
    assert type(slow.network) is Network
    assert summary["backend"] == "scalar"
    assert "no-compiler" in summary["refused"]
    assert "refused" not in fast.summary()
    assert slow.trace.records == fast.trace.records


# -- no callback, the calls of before -----------------------------------------

def _recording(net):
    """Log every ``run()`` call of ``net``: its window and drain flag,
    the code it returned and the cycle it got to."""
    calls, call, cycle = [], net._call, net._S_CYCLE

    def run(chip, c, stop, drain):
        code = call(chip, c, stop, drain)
        calls.append((c, stop, int(drain), code, int(net._state[cycle])))
        return code
    net._call = run
    return calls


def _sat_point():
    topo = make_topology("mesh", 8, 8, 1)
    net = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB), routing="xy",
                        vc_policy="static", seed=11)
    calls = _recording(net)
    net.stats.warmup_cycles = 40
    net.run(200, SyntheticTraffic("uniform", 64, 0.30, 5, seed=11))
    net.drain()
    return calls


def _trace_point():
    net = VectorNetwork(make_topology("cmesh", 4, 4, 4),
                        NetworkConfig(pseudo=PSEUDO_SB, mshrs=4),
                        routing="o1turn", vc_policy="dynamic", seed=7)
    calls = _recording(net)
    net.stats.warmup_cycles = 30
    replay = TraceReplayTraffic(get_trace("radix", cycles=150, warmup=200,
                                          seed=7))
    net.run(replay.horizon, replay)
    net.drain(max_cycles=500_000)
    return calls


#: Recorded on the commit before ``run()`` could come back mid-cycle.
CALLS = {
    "sat-mesh8x8-pseudo_sb": (
        _sat_point,
        "3313fda3886ea71e4347518f2352e63ffa2707349503f6bd02bc6aa393dae660"),
    "trace-cmesh-radix-pseudo_sb": (
        _trace_point,
        "8e7adcd4f947b168989c3befced1342664fcf21e3e55891eb70730a5d93cc0ac"),
}


@pytest.mark.parametrize("point", CALLS.values(), ids=CALLS)
def test_no_callback_makes_the_calls_of_before(point):
    run, digest = point
    calls = run()
    assert len(calls) > 1
    text = "\n".join(map(repr, calls))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
