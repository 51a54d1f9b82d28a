"""Batched multi-run execution: S independent simulations as one chip.

``BatchNetwork`` replicates the structure-of-arrays layout of one
topology S times (``layout.build_layout(..., lanes=S)``): lane ``s``
owns its own contiguous block of every id space, so the one compiled
call per cycle inherited from ``VectorNetwork`` steps all lanes in a
single pass over the arrays. What a cycle costs whatever the occupancy
— the call into the kernel, the Python loop around it — is paid once
per cycle for the whole batch instead of once per run, which is what
makes a sweep of many small low-load points cheap
(``network.batched.lane_speedup.mesh8_low16`` in the ``perf/`` ledger).

Bit-identity per lane: lanes never share an index, so nothing the
kernel does couples them, and each lane's packets keep lane-local
src/dst ids, so routing, static VC designation and the per-port
locality registers see exactly the solo values. The batch steps a
shared global clock; a lane stepping through cycles its solo run would
have fast-forwarded over changes nothing, because fast-forwarding is
stats-preserving (locked in by the solo parity suite) and an idle
lane's routers are on neither router list of the cycle. Each lane's
``lane_stats`` — its row of the ``counts`` every array core keeps; a
solo network is the one-lane case — is therefore fingerprint-identical
to the same point run solo (tests/network/test_batched_parity.py).

Active-lane compaction is structural rather than masked: finished or
idle lanes have no buffered flits, no queued or in-flight NIC work and
no calendar entries, so none of their routers has a bit in ``r_map``,
the bitmap the kernel builds a cycle's router lists from, their
terminals fall through the NIC loop's two tests (``q_head``,
``_snd_cnt``), and they cost next to nothing; the traffic loop
(``VectorNetwork._drive``) serves a lane's source only while its window
is open. What this module adds is the constructor (a seed per lane) and
``run_batch``'s per-lane arguments.
"""

from __future__ import annotations

from ...topology.base import Topology
from ..config import NetworkConfig
from .core import VectorNetwork


class BatchNetwork(VectorNetwork):
    """S independent simulations of one topology, stepped as one chip.

    ``seeds`` gives one per-lane seed; lane ``s`` reproduces the solo
    ``VectorNetwork(..., seed=seeds[s])`` bit-for-bit. Traffic sources
    (one per lane, lane-local terminal ids) are driven by
    ``run_batch``; per-lane results come out of ``lane_stats``.
    """

    def __init__(self, topology: Topology, config: NetworkConfig,
                 routing="xy", vc_policy="dynamic", seeds=(1,),
                 probe=None):
        seeds = tuple(seeds)
        if not seeds:
            raise ValueError("BatchNetwork needs at least one lane seed")
        super().__init__(topology, config, routing=routing,
                         vc_policy=vc_policy, seed=seeds[0], probe=probe,
                         lanes=len(seeds), lane_seeds=seeds)
        self.lanes = len(seeds)
        self.lane_seeds = seeds

    # -- driving --------------------------------------------------------------

    def run(self, cycles, traffic=None):
        raise TypeError(
            "BatchNetwork is driven per lane: use run_batch(traffics, "
            "cycles, warmups)")

    def run_batch(self, traffics, cycles, warmups=None) -> None:
        """Offer every lane its traffic for its own cycle budget.

        ``traffics``/``cycles``/``warmups`` give one entry per lane. A
        lane's window closes once its budget is spent (matching the solo
        run window exactly). Call ``drain`` afterwards.
        """
        S = self.lanes
        if len(traffics) != S or len(cycles) != S:
            raise ValueError(
                f"need one traffic source and cycle count per lane "
                f"({S} lanes)")
        if warmups is not None:
            if len(warmups) != S:
                raise ValueError(f"need one warmup per lane ({S} lanes)")
            self.lane_warmup[:] = [int(w) for w in warmups]
            # Lane 0's is re-read from the lane-0 stats every cycle.
            self._stats.warmup_cycles = int(warmups[0])
        self._drive(traffics, [self.cycle + int(n) for n in cycles])
