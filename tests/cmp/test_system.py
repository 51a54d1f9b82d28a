"""Integration tests for the CMP system."""

import pytest

from repro.cmp.config import CmpConfig
from repro.cmp.messages import message_flits, READ_REQ, READ_RESP
from repro.cmp.system import CmpSystem
from repro.network.config import NetworkConfig
from repro.network.simulator import Network
from repro.topology.mesh import ConcentratedMesh, Mesh


class TestConstruction:
    def test_default_layout_is_paper_cmesh(self):
        system = CmpSystem("fma3d", seed=1)
        topo = system.network.topology
        assert isinstance(topo, ConcentratedMesh)
        assert topo.num_terminals == 64
        # Each router hosts 2 cores (locals 0-1) and 2 banks (locals 2-3).
        assert system.core_terminals[:4] == [0, 1, 4, 5]
        assert system.bank_terminals[:4] == [2, 3, 6, 7]

    def test_checkerboard_layout_on_plain_mesh(self):
        net = Network(Mesh(8, 8), NetworkConfig(), "xy", "dynamic", seed=1)
        system = CmpSystem("fft", network=net, seed=1)
        assert len(system.core_terminals) == 32
        assert len(system.bank_terminals) == 32
        assert set(system.core_terminals).isdisjoint(system.bank_terminals)

    def test_too_small_topology_rejected(self):
        net = Network(Mesh(2, 2), NetworkConfig(), "xy", "dynamic", seed=1)
        with pytest.raises(ValueError):
            CmpSystem("fft", network=net)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            CmpSystem("doom")


class TestExecution:
    def test_closed_loop_generates_and_delivers_traffic(self):
        system = CmpSystem("blackscholes", seed=2)
        system.run(600)
        stats = system.network.stats
        assert system.messages_sent > 50
        assert stats.ejected_packets > 0
        # Requests get responses: both 1-flit and 5-flit packets flow.
        system.network.check_invariants()

    def test_home_bank_mapping_is_interleaved(self):
        system = CmpSystem("fft", seed=1)
        shift = system.config.interleave_shift
        t0 = system.bank_terminal_for(0)
        assert system.bank_terminal_for((1 << shift) - 1) == t0
        assert system.bank_terminal_for(1 << shift) != t0

    def test_trace_recording_respects_warmup(self):
        system = CmpSystem("swaptions", seed=3)
        system.run(400, record_trace=True, warmup=200)
        trace = system.trace
        assert len(trace) > 0
        assert all(r.cycle < 200 for r in trace.records)  # re-based to 0
        assert trace.benchmark == "swaptions"

    def test_each_read_probes_the_l1_once(self):
        """A stalled read is retried at the MSHR file, not the L1: every
        issued read probed once, and each core stalled on a read has
        probed for it but not yet issued it (radix at 600 + 200 cycles,
        seed 1, recorded 7 512 misses for 3 773 reads when the retry
        probed every cycle)."""
        system = CmpSystem("radix", seed=1)
        system.run(800, warmup=200)
        probes = sum(c.l1.hits + c.l1.misses for c in system.cores)
        reads = sum(c.reads for c in system.cores)
        stalled_on_reads = sum(c._stalled is not None and not c._stalled[1]
                               for c in system.cores)
        assert system.summary()["mshr_stalls"] > 0
        assert probes == reads + stalled_on_reads

    def test_summary_fields(self):
        system = CmpSystem("lu", seed=1)
        system.run(300)
        summary = system.summary()
        assert summary["benchmark"] == "lu"
        assert 0.0 <= summary["l1_miss_rate"] <= 1.0
        assert summary["messages"] == system.messages_sent


class TestMessageSizes:
    def test_flit_sizes(self):
        cfg = CmpConfig()
        assert message_flits(READ_REQ, cfg) == 1
        assert message_flits(READ_RESP, cfg) == 5
        with pytest.raises(ValueError):
            message_flits("gossip", cfg)
