"""``CmpSystem.tick`` reads exactly as the loop that skips nothing.

``CmpSystem.tick`` makes no call for a stalled core none of whose MSHRs
was released since it stalled (it counts the failed retry instead) nor
for a bank with nothing due. ``reference.ReferenceCmpSystem`` steps
every core and bank every cycle. Both are run on the same network core
from the same seed, the run split in two ``run()`` calls, and must
agree on everything a run leaves: the trace (order included), the
summary after each call, every core's and bank's counters, MSHRs and
random state, the network's ``NetworkStats`` and every delivery the
endpoints were handed. Runs at one MSHR per core end with cores stalled.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cmp.config import CmpConfig
from repro.cmp.system import CmpSystem
from repro.network.config import NetworkConfig
from repro.network.simulator import Network
from repro.topology import make_topology

from .reference import ReferenceCmpSystem


def _network(core, seed):
    """``CmpSystem``'s default network on ``core``."""
    cls = Network
    if core == "compiled":
        pytest.importorskip("numpy")
        from repro.network.vectorized import VectorNetwork, kernel
        loaded = kernel.load()
        if not loaded.status.startswith("c:"):
            pytest.skip(f"no compiled cycle here: {loaded.refusal()}")
        cls = VectorNetwork
    return cls(make_topology("cmesh", 4, 4, 4), NetworkConfig(),
               routing="o1turn", vc_policy="dynamic", seed=seed)


def _run(cls, core, bench, seed, mshrs, first, second, warmup):
    """A run split in two ``run()`` calls: the system, its summary after
    each call and every delivery, ``(cycle, terminal, src, msg_type)``."""
    system = cls(bench, network=_network(core, seed),
                 cmp_config=CmpConfig(mshrs_per_core=mshrs), seed=seed)
    log = []
    for terminal, endpoint in system._endpoint_by_terminal.items():
        def logged(owner, packet, cycle, terminal=terminal,
                   handle=endpoint.on_message):
            log.append((cycle, terminal, packet.src, packet.msg_type))
            handle(owner, packet, cycle)
        endpoint.on_message = logged
    summaries = [system.run(first, record_trace=True,
                            warmup=warmup).summary()]
    summaries.append(system.run(second, record_trace=True).summary())
    # A run that ejected nothing after its warm-up has a NaN latency.
    return system, [repr(summary) for summary in summaries], log


def _state(system):
    """What the cores and banks hold and have counted."""
    cores = [(c.accesses, c.reads, c.writes, c.l1_hits, c.stall_cycles,
              c.l1.hits, c.l1.misses, c.mshrs.stalls, c.mshrs.merges,
              c._stalled, c.mshrs._entries, c.rng.getstate(),
              c.stream.rng.getstate()) for c in system.cores]
    # The sequence numbers of ``_due`` come from one process-wide counter.
    banks = [(b.read_reqs, b.write_reqs, b.invals_sent, b.l2_misses,
              b.directory, b._pending_writes, b._waiting,
              [(when, action) for when, _, action in sorted(b._due)],
              b.rng.getstate()) for b in system.banks]
    return cores, banks


def _assert_same(bench, seed, mshrs, first, second, warmup, core):
    skipping, skipping_summaries, skipping_log = _run(
        CmpSystem, core, bench, seed, mshrs, first, second, warmup)
    stepping, stepping_summaries, stepping_log = _run(
        ReferenceCmpSystem, core, bench, seed, mshrs, first, second, warmup)
    assert skipping.trace.records == stepping.trace.records
    assert skipping_summaries == stepping_summaries
    assert _state(skipping) == _state(stepping)
    assert skipping.network.stats == stepping.network.stats
    assert (skipping.network.stats.latency_histogram
            == stepping.network.stats.latency_histogram)
    assert skipping.network.cycle == stepping.network.cycle
    assert skipping_log == stepping_log
    return skipping


@pytest.mark.parametrize("core", ["compiled", "scalar"])
@settings(max_examples=25, deadline=None)
@given(bench=st.sampled_from(["radix", "streamcluster", "specjbb",
                              "swaptions"]),
       seed=st.integers(1, 1000),
       mshrs=st.sampled_from([1, 4]),
       first=st.integers(1, 300),
       second=st.integers(0, 200),
       warmup=st.integers(0, 60))
def test_skipping_reads_as_stepping_everything(core, bench, seed, mshrs,
                                                first, second, warmup):
    _assert_same(bench, seed, mshrs, first, second, warmup, core)


@pytest.mark.parametrize("core", ["compiled", "scalar"])
def test_a_run_that_ends_mid_stall(core):
    """Cores stalled when the first call returns, and when the second
    does, read the same either way."""
    system = _assert_same("radix", 3, 1, 120, 40, 20, core)
    assert sum(c._stalled is not None for c in system.cores) >= 4
    assert system.summary()["mshr_stalls"] > 0
