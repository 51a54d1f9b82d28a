"""Vectorized structure-of-arrays network core.

``VectorNetwork`` implements the same cycle-level contract as the scalar
``network.simulator.Network`` (see ARCHITECTURE.md "Backends") but steps
the *whole chip* per cycle as batched numpy array operations instead of
per-object method dispatch. All per-(router, port, vc) state lives in
flat int64/bool arrays indexed by the id spaces of ``layout.Layout``;
routing is an array gather over the compiled tables; round-robin
arbitration is the same rotate-and-isolate bit math as
``network.arbiters.RoundRobinArbiter``, evaluated for many arbiters at
once. Every supported configuration produces bit-identical
``NetworkStats`` fingerprints to the scalar core (locked in by
``tests/network/test_vectorized_parity.py``).

Packets and flits are rows of two pools (the ``p_*`` and ``f_*`` arrays)
recycled at ejection, so storage follows the packets in flight rather
than the packets ever injected (see "pools" in the class).

Event flow between cycles uses bucketed queues (dict keyed by cycle,
values are lists of index arrays): flit arrivals, credit returns and
ejections are appended as whole batches at traversal time and drained
in one concatenation when their cycle comes. Arrival batches are
stable-sorted by link id, reproducing the scalar phase-3 ascending
link-id tick order exactly.

The router step exists in two forms, chosen once per network at
construction (``_bind_kernel``; ``step_kernel`` names the choice): the
numpy phases of ``_step_routers`` below, and the same phases compiled
from ``kernel.c`` and called from ``_step_kernel`` when the process
found a C compiler (``kernel.py``). Both leave identical state and emit
identical events through the same stats hooks, observer hooks and
calendars; everything outside the router step is shared.

Observability is array-native (see ``vectorized/obs.py``): probes and
monitors that implement the batched ``vector_hooks`` vocabulary
(``VectorSeriesProbe``, ``VectorInvariantChecker``) attach through
``bind_probe``/``attach_checker`` and receive whole index arrays at the
emission sites below; ``enable_profile`` accumulates per-phase wall time
inside the step loop. Deliberately unsupported (raising
``BackendUnsupportedError``): per-flit event probes (``FlitTracer`` and
other scalar-protocol instrumentation), non-tabulable routing
algorithms, multidrop (MECS) channels, non-roundrobin arbiters, and VC
policies other than dynamic/static — use the scalar backend for those.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict, deque
from time import perf_counter

from ...core.pseudo_circuit import Termination
from ...metrics.stats import NetworkStats
from ...routing import RoutingAlgorithm, compile_routing, make_routing
from ...topology.base import Topology
from ...vcalloc import make_vc_policy
from ..buffers import BufferOverflowError
from ..config import NetworkConfig
from ..flit import Packet
from ..router import ProtocolError
from .kernel import E_BOUNDS, Binding
from .kernel import load as load_kernel
from .layout import build_layout
from .obs import VectorInvariantChecker

from ..backend import BackendUnsupportedError, require_numpy

# Pool fields and the value a slot reads before its packet writes it;
# construction, growth and a reused slot all take it from here.
#: Packet fields filled in flight, which a reused slot must not inherit.
_PACKET_IN_FLIGHT = {"p_inject": -1, "p_hops": 0, "p_sa": 0, "p_buf": 0,
                     "p_rx": 0}
#: The rest are assigned outright by ``inject`` (``p_pair`` is
#: src * T + dst, precomputed there: the e2e-repeat stat compares one
#: gather per traversal instead of two).
_PACKET_FIELDS = {"p_src": 0, "p_dst": 0, "p_size": 0, "p_choice": 0,
                  "p_create": 0, "p_pair": 0, **_PACKET_IN_FLIGHT}
#: Flit fields rewritten at every hop; ``f_pkt`` is assigned when the
#: block is taken and ``f_head``/``f_tail`` are fixed for a block's life.
_FLIT_PER_HOP = {"f_vc": -1, "f_ready": 0}
_FLIT_FIELDS = {"f_pkt": 0, "f_head": False, "f_tail": False,
                **_FLIT_PER_HOP}

# What the compiled step (``kernel.c``) reports in the integers of its
# ``n[]``: the error a negative return code stands for (the one the
# numpy phase raises at the same place), the termination reason of each
# ``term`` row, and ``(via, popped)`` of a traversal batch.
_KERNEL_ERRORS = {
    -1: (ProtocolError, "body flit at the front of an idle VC"),
    -2: (ProtocolError, "body flit on inactive VC"),
    -3: (ProtocolError, "head flit arrived on a still-allocated VC"),
    -4: (ProtocolError, "body flit arrived on an inactive VC"),
    -5: (BufferOverflowError, "flit buffer overflow (capacity {D})"),
}
_KERNEL_TERMINATIONS = (Termination.CONFLICT_OUTPUT,
                        Termination.CONFLICT_INPUT,
                        Termination.ROUTE_MISMATCH, Termination.NO_CREDIT)
_KERNEL_VIAS = (("sa", True), ("pc", True), ("buf", False))


class VectorNetwork:
    """A complete simulated on-chip network, stepped as array ops."""

    def __init__(self, topology: Topology, config: NetworkConfig,
                 routing="xy", vc_policy="dynamic", seed: int = 1,
                 stats: NetworkStats | None = None,
                 probe=None, lanes: int = 1, lane_seeds=None):
        np = require_numpy()
        self._np = np
        if config.arbiter_kind != "roundrobin":
            raise BackendUnsupportedError(
                f"the vectorized backend supports only roundrobin "
                f"arbiters, not {config.arbiter_kind!r} (topology "
                f"{topology.name!r}); use --backend scalar")
        self.topology = topology
        self.config = config
        if isinstance(routing, str):
            routing = make_routing(routing, topology)
        if isinstance(vc_policy, str):
            vc_policy = make_vc_policy(vc_policy)
        self.routing = routing
        self.vc_policy = vc_policy
        if vc_policy.name not in ("dynamic", "static"):
            raise BackendUnsupportedError(
                f"the vectorized backend supports only the dynamic and "
                f"static VC policies, not {vc_policy.name!r} (topology "
                f"{topology.name!r}); use --backend scalar")
        self._static_vc = vc_policy.name == "static"
        for channel in topology.channels():
            if len(channel.endpoints) != 1:
                raise BackendUnsupportedError(
                    f"the vectorized backend supports only point-to-point "
                    f"channels (one endpoint); topology {topology.name!r} "
                    f"has multidrop channels — use --backend scalar")
        self.compiled_routing = compile_routing(routing, topology,
                                                config.num_vcs)
        if self.compiled_routing is None:
            raise BackendUnsupportedError(
                f"the vectorized backend requires a tabulable routing "
                f"algorithm; {type(routing).__name__} is dynamic-only on "
                f"topology {topology.name!r} — use --backend scalar")
        self.stats = stats if stats is not None else NetworkStats()
        self.rng = random.Random(seed)
        self.cycle = 0

        lay = build_layout(topology, config, self.compiled_routing,
                           lanes=lanes)
        self._lay = lay
        R, T, V, D = lay.R, lay.T, lay.V, lay.D
        Pi, Po = lay.Pi, lay.Po
        self._R, self._T, self._V, self._D = R, T, V, D
        self._lanes = lanes
        self._T_local = T // lanes
        self._Pi, self._Po = Pi, Po
        NIP, NIVC = lay.NIP, lay.NIVC
        NOP, NOVC = lay.NOP, lay.NOVC
        self._NIP, self._NIVC = NIP, NIVC
        self._NOP, self._NOVC = NOP, NOVC
        i64 = np.int64
        self._arV = np.arange(V, dtype=i64)

        # Input VC state (vc.VCState: 0 idle, 1 va, 2 active).
        self.vc_state = np.zeros(NIVC, dtype=i64)
        self.vc_out_port = np.full(NIVC, -1, dtype=i64)   # local out port
        self.vc_out_opid = np.full(NIVC, -1, dtype=i64)   # global out port
        self.vc_out_vc = np.full(NIVC, -1, dtype=i64)
        self.vc_out_cred = np.zeros(NIVC, dtype=i64)      # credit index
        # Input buffers: fixed-capacity rings of flit pool ids.
        self.buf_fid = np.zeros((NIVC, D), dtype=i64)
        self.buf_head = np.zeros(NIVC, dtype=i64)
        self.buf_len = np.zeros(NIVC, dtype=i64)
        # Pseudo-circuit registers (per input port) and output holders.
        self.pc_in_vc = np.full(NIP, -1, dtype=i64)
        self.pc_out_port = np.full(NIP, -1, dtype=i64)
        self.pc_valid = np.zeros(NIP, dtype=bool)
        self.ip_st = np.full(NIP, -1, dtype=i64)          # st_busy_cycle
        self.ip_last_out = np.full(NIP, -1, dtype=i64)
        self.ip_last_pair = np.full(NIP, -1, dtype=i64)   # src*T + dst
        self.op_st = np.full(NOP, -1, dtype=i64)
        self.op_holder = np.full(NOP, -1, dtype=i64)      # local in port
        self.op_hist = np.full(NOP, -1, dtype=i64)        # history register
        # Arbiter rotation state.
        self.in_arb_next = np.zeros(NIP, dtype=i64)
        self.out_arb_next = np.zeros(NOP, dtype=i64)
        # Unified credit space: router output VCs then NIC inject VCs.
        self.cred = lay.cred_init.copy()
        self.cred_free = np.ones(lay.NCRED, dtype=bool)   # owner is None
        self._credview = self.cred[:NOVC].reshape(NOP, V)

        # Packet and flit pools (see "pools" below): a slot lives as
        # long as its packet, so the pools grow to the peak in flight.
        self._kernel = None
        self._pcap = self._size_pool(_PACKET_FIELDS, 0, 512)
        self._fcap = self._size_pool(_FLIT_FIELDS, 0, 1024)
        #: Slot -> the ``Packet`` handed to ``inject`` (its fields are
        #: written back at ejection), ``None`` once ejected; its length
        #: is the packet high-water mark, ``_nflits`` the flit one.
        self.p_obj: list[Packet | None] = []
        self._nflits = 0
        self._p_free: list[int] = []
        #: Packet size -> first flit ids of the free blocks of that size.
        self._f_free: defaultdict[int, list[int]] = defaultdict(list)

        # NIC send state: one in-progress transmission per inject VC.
        self.snd_pid = np.full((T, V), -1, dtype=i64)
        self.snd_next = np.zeros((T, V), dtype=i64)
        self.snd_left = np.zeros((T, V), dtype=i64)
        self.send_rr = np.zeros(T, dtype=i64)
        self.outstanding = np.zeros(T, dtype=i64)
        #: Terminal -> source queue of packet slots, built on first use.
        self._queues: defaultdict[int, deque] = defaultdict(deque)
        self.hq_valid = np.zeros(T, dtype=bool)
        self.hq_choice = np.zeros(T, dtype=i64)
        self.hq_dst = np.zeros(T, dtype=i64)
        self._num_queued = 0
        self._sending_count = 0
        # Per-terminal injection RNG seeds, drawn in the same order as
        # Network._build_nics so o1turn route choices match bit-for-bit.
        # With lane_seeds each lane draws its block from its own seed,
        # reproducing the solo network seeded the same way. The RNG
        # itself is built when a terminal first injects, and only under
        # a routing whose ``on_inject`` does something.
        if lane_seeds is None:
            self._nic_seeds = [self.rng.getrandbits(32) for _ in range(T)]
        else:
            if len(lane_seeds) != lanes:
                raise ValueError("lane_seeds must give one seed per lane")
            self._nic_seeds = [
                lane_rng.getrandbits(32)
                for lane_rng in (random.Random(s) for s in lane_seeds)
                for _ in range(self._T_local)]
        self.nic_rngs: dict[int, random.Random] = {}
        self._on_inject = (
            routing.on_inject
            if type(routing).on_inject is not RoutingAlgorithm.on_inject
            else None)

        # Bucketed event queues: cycle -> list of index-array batches.
        self._arr_bucket: dict[int, list] = {}
        self._cred_bucket: dict[int, list] = {}
        self._ej_bucket: dict[int, list] = {}
        self._ej_pending = 0
        self._buffered = 0
        self._r_buffered = np.zeros(R, dtype=i64)
        # Scratch arrays reused across cycles (reset after each use).
        self._smap = np.zeros(NIP, dtype=i64)       # port -> stage1 ivc
        self._port_mask = np.zeros(NIP, dtype=i64)  # SA request VC masks
        self._omask = np.zeros(NOP, dtype=i64)      # stage2 request masks
        self._iscand = np.zeros(NIVC, dtype=bool)

        # Hoisted config flags.
        self._pc_enabled = config.pseudo.enabled
        self._pc_speculation = config.pseudo.speculation
        self._pc_bypass = config.pseudo.buffer_bypass
        self._cd = max(config.credit_delay, 1)
        self._mshrs = config.mshrs
        self._iq = config.inject_queue
        # Uniform channel latency (the common case): traversal batches
        # can compute one scalar arrival cycle instead of per-flit.
        vlat = lay.op_latency[lay.op_valid]
        self._unilat = (int(vlat[0])
                        if vlat.size and bool((vlat == vlat[0]).all())
                        else None)
        # Every route choice spanning the full VC window lets the VC
        # policies skip the per-row range masking.
        self._fullrange = bool((lay.route_lo == 0).all()
                               and (lay.route_hi == self._V).all())
        # Per-terminal count of in-progress transmissions (fast row scan
        # for the NIC send phase) and a shared empty index array.
        self._snd_cnt = np.zeros(T, dtype=i64)
        self._empty_i64 = np.empty(0, dtype=i64)
        # Shared identity ramp: hot helpers slice this instead of
        # allocating a fresh arange per call (views are read-only
        # by convention there).
        self._ramp = np.arange(max(lay.NIVC, lay.NCRED), dtype=i64)
        # Largest possible credit count anywhere (ejection buffers can
        # be deeper than router buffers): bounds the VA sort keys.
        self._credmax = int(lay.cred_init.max())
        # Port-space base maps: crossing between the input and output
        # port id spaces of one router becomes a single gather.
        self._ip_opbase = (np.arange(NIP, dtype=i64) // Pi) * Po
        self._op_ipbase = (np.arange(NOP, dtype=i64) // Po) * Pi
        # Round-robin grant table: when every arbiter is small enough,
        # grants for all (size, mask, next) triples are precomputed with
        # the exact RoundRobinArbiter formula, turning ``_rr_pick`` into
        # one gather.
        S = max(V, Pi)
        if S <= 8:
            tab = np.zeros((S + 1) * 256 * 8, dtype=i64)
            for size in range(1, S + 1):
                full = (1 << size) - 1
                for mask in range(1, full + 1):
                    for nx in range(size):
                        rot = ((mask >> nx) | (mask << (size - nx))) & full
                        cand = (rot & -rot).bit_length() - 1 + nx
                        if cand >= size:
                            cand -= size
                        tab[(size * 256 + mask) * 8 + nx] = cand
            self._rr_tab = tab
        else:
            self._rr_tab = None

        # Observability (see vectorized/obs.py): an optional window
        # probe and/or invariant checker consume the batched hooks at
        # the emission sites; ``_vhooks`` holds the attached consumers,
        # so the cold path costs one truthiness test per site. The
        # probe binds last — its hooks read the arrays built above.
        self.probe = None
        self._vprobe = None
        self._checker = None
        self._vhooks = ()
        self._prof = None
        self._bind_kernel()
        if probe is not None:
            self.bind_probe(probe)

    def _bind_kernel(self) -> None:
        """Decide, once, how this network steps its routers: through
        the compiled phases of ``kernel.c`` when the process has them
        (``self._kernel`` is then this network's ``Chip``), else through
        the numpy phases below. ``step_kernel`` says which, and why."""
        kernel = load_kernel()
        #: ``c:<artifact key>`` or ``numpy:<reason>`` (run manifests).
        self.step_kernel = kernel.status
        if kernel.lib is None:
            return
        lay = self._lay
        # The Chip names each array as this class or its layout does
        # (less the underscore of ``_r_buffered`` and the SA scratch).
        arrays = {
            name: next(getattr(holder, attr) for holder, attr in (
                (self, name), (self, "_" + name), (lay, name))
                if hasattr(holder, attr))
            for _, name, owner in kernel.arrays if owner == "NET"}
        _, choices, t_local = lay.route_out.shape
        self._kernel = Binding(
            kernel, self._np, arrays,
            dict(R=self._R, Pi=self._Pi, Po=self._Po, V=self._V, D=self._D,
                 C=choices, TL=t_local, NIP=self._NIP,
                 static_vc=self._static_vc, pc_enabled=self._pc_enabled,
                 pc_speculation=self._pc_speculation,
                 pc_bypass=self._pc_bypass),
            NIVC=self._NIVC, NOP=self._NOP)

    # -- pools ----------------------------------------------------------------
    # A packet slot and its contiguous flit block live exactly as long
    # as the packet: taken at ``inject`` / ``_start_packet``, returned by
    # ``_eject`` when the tail is reassembled. The bump allocator is the
    # free list's empty case, and the pools never shrink — the stale ids
    # that rings of empty VCs and finished ``snd_next`` slots still hold
    # stay in range, and every reader masks them (``buf_len``,
    # ``snd_left``) before deciding anything from them.

    def _size_pool(self, fields, old: int, need: int) -> int:
        """Allocate every field of a pool for at least ``need`` slots,
        doubling from ``old`` (construction is ``old == 0``), and return
        the capacity. The first ``old`` slots keep their contents; the
        rest read the field's initial value."""
        np = self._np
        cap = old or need
        while cap < need:
            cap *= 2
        for name, init in fields.items():
            new = np.full(cap, init,
                          dtype=bool if init is False else np.int64)
            if old:
                new[:old] = getattr(self, name)
            setattr(self, name, new)
            if self._kernel is not None and name in self._kernel:
                self._kernel.point(name, new)
        return cap

    def _take_packet(self) -> int:
        """A packet slot whose in-flight fields read their initial
        values: a free one, else the next past the high-water mark."""
        if self._p_free:
            pk = self._p_free.pop()
            for name, init in _PACKET_IN_FLIGHT.items():
                getattr(self, name)[pk] = init
            return pk
        pk = len(self.p_obj)
        if pk >= self._pcap:
            self._pcap = self._size_pool(_PACKET_FIELDS, self._pcap, pk + 1)
        self.p_obj.append(None)
        return pk

    def _take_flits(self, size: int) -> int:
        """First id of a contiguous block of ``size`` flits: a free block
        of that size (its head and tail marks already in place), else
        fresh ids past the high-water mark."""
        free = self._f_free[size]
        if free:
            fid0 = free.pop()
            for name, init in _FLIT_PER_HOP.items():
                getattr(self, name)[fid0:fid0 + size] = init
            return fid0
        fid0 = self._nflits
        end = fid0 + size
        if end > self._fcap:
            self._fcap = self._size_pool(_FLIT_FIELDS, self._fcap, end)
        self._nflits = end
        self.f_head[fid0] = True
        self.f_tail[end - 1] = True
        return fid0

    # -- driving --------------------------------------------------------------

    def inject(self, packet: Packet, lane: int = 0) -> None:
        """Hand a packet to its source NIC (mirrors Nic.enqueue).

        ``packet.src``/``dst`` are lane-local terminal ids; ``lane``
        selects the replicated block (always 0 on a solo network).
        ``p_src`` stores the *global* terminal so the outstanding
        scatter and per-lane ejection attribution need no extra map,
        while ``p_dst``/``p_pair`` stay lane-local — routing tables and
        the static VC designation hash are indexed by local dst, which
        keeps every lane bit-identical to its solo run.
        """
        t = packet.src + lane * self._T_local
        q = self._queues[t]
        if 0 < self._iq <= len(q):
            raise RuntimeError(
                f"NIC {t}: source queue overflow ({self._iq})")
        if self._on_inject is not None:
            rng = self.nic_rngs.get(t)
            if rng is None:
                rng = self.nic_rngs[t] = random.Random(self._nic_seeds[t])
            self._on_inject(packet, rng)
        pk = self._take_packet()
        self.p_obj[pk] = packet
        self.p_src[pk] = t
        self.p_dst[pk] = packet.dst
        self.p_pair[pk] = packet.src * self._T_local + packet.dst
        self.p_size[pk] = packet.size
        self.p_choice[pk] = packet.route_choice
        self.p_create[pk] = packet.create_cycle
        if not q:
            self.hq_valid[t] = True
            self.hq_choice[t] = packet.route_choice
            self.hq_dst[t] = packet.dst
        q.append(pk)
        self._num_queued += 1

    def step(self) -> None:
        """Advance the whole network by one cycle."""
        np = self._np
        c = self.cycle
        hooks = self._vhooks
        if hooks:
            for h in hooks:
                h.on_cycle_start(c, self)
        prof = self._prof
        if prof is not None:
            t0 = perf_counter()
        batch = self._cred_bucket.pop(c, None)
        if batch is not None:
            idx = batch[0] if len(batch) == 1 else np.concatenate(batch)
            np.add.at(self.cred, idx, 1)
        ej = self._ej_bucket.pop(c, None)
        if ej is not None:
            if len(ej) == 1:
                terms, fids = ej[0]
            else:
                terms = np.concatenate([b[0] for b in ej])
                fids = np.concatenate([b[1] for b in ej])
            self._eject(c, terms, fids)
        arr = self._arr_bucket.pop(c, None)
        arrivals = None
        if arr is not None:
            if len(arr) == 1:
                links, dests, fids = arr[0]
            else:
                links = np.concatenate([b[0] for b in arr])
                dests = np.concatenate([b[1] for b in arr])
                fids = np.concatenate([b[2] for b in arr])
            if len(links) > 1:
                order = links.argsort(kind="stable")
                dests = dests[order]
                fids = fids[order]
            arrivals = (dests, fids)
        if prof is not None:
            prof["st_credit"] += perf_counter() - t0
            prof["stepped_cycles"] += 1
        if self._buffered or arrivals is not None:
            if self._kernel is None:
                self._step_routers(c, arrivals)
            else:
                self._step_kernel(c, arrivals)
        if self._num_queued or self._sending_count:
            if prof is not None:
                t0 = perf_counter()
                self._tick_inject(c)
                prof["inject"] += perf_counter() - t0
            else:
                self._tick_inject(c)
        if hooks:
            for h in hooks:
                h.vec_cycle_end(c, self)
        self.cycle = c + 1

    def _next_event_cycle(self) -> float:
        nxt = math.inf
        for bucket in (self._arr_bucket, self._cred_bucket,
                       self._ej_bucket):
            if bucket:
                k = min(bucket)
                if k < nxt:
                    nxt = k
        return nxt

    def _try_fast_forward(self, bound: int,
                          traffic_next: int | None) -> None:
        if self._buffered or self._num_queued or self._sending_count:
            return
        nxt = self._next_event_cycle()
        if traffic_next is not None and traffic_next < nxt:
            nxt = traffic_next
        target = bound if nxt == math.inf else min(bound, int(nxt))
        if target > self.cycle:
            if self._prof is not None:
                self._prof["ff_cycles"] += target - self.cycle
            self.cycle = target

    def fast_forward(self, bound: int,
                     traffic_next: int | None = None) -> None:
        """Skip to the next scheduled event if nothing acts per-cycle."""
        self._try_fast_forward(bound, traffic_next)

    def run(self, cycles: int, traffic=None) -> NetworkStats:
        """Run for ``cycles`` cycles, ticking ``traffic`` once per cycle."""
        end = self.cycle + cycles
        next_injection = (getattr(traffic, "next_injection_cycle", None)
                          if traffic is not None else None)
        while self.cycle < end:
            if traffic is not None:
                traffic.tick(self, self.cycle)
            self.step()
            if traffic is None:
                self._try_fast_forward(end, None)
            elif next_injection is not None:
                self._try_fast_forward(end, next_injection(self.cycle))
        return self.stats

    def drain(self, max_cycles: int = 1_000_000) -> NetworkStats:
        """Run without new traffic until every packet is delivered."""
        deadline = self.cycle + max_cycles
        while not self.quiescent():
            if self.cycle >= deadline:
                raise RuntimeError(
                    f"network failed to drain within {max_cycles} cycles "
                    f"({self.in_flight_packets()} packets left)")
            self.step()
            if not self.quiescent():
                self._try_fast_forward(deadline, None)
        return self.stats

    # -- queries --------------------------------------------------------------

    def in_flight_packets(self) -> int:
        return self._num_queued + (self.stats.injected_packets
                                   - self.stats.ejected_packets)

    def quiescent(self) -> bool:
        if self._num_queued or self._sending_count or self._ej_pending:
            return False
        stats = self.stats
        return stats.injected_packets == stats.ejected_packets

    def bind_probe(self, probe) -> None:
        """Attach a vector-aware probe (``vector_hooks`` protocol).

        Probes that need the scalar per-event stream (``FlitTracer``,
        the plain ``TimeSeriesProbe``) are refused loudly: replaying
        per-flit events from array batches would serialize the core.
        """
        if not getattr(probe, "vector_hooks", False):
            raise BackendUnsupportedError(
                f"the vectorized backend cannot drive "
                f"{type(probe).__name__}: per-flit event instrumentation "
                f"(e.g. Chrome tracing) needs the scalar core (topology "
                f"{self.topology.name!r}) — use --backend scalar, or a "
                f"vector-aware probe such as VectorSeriesProbe")
        probe.bind(self)
        self.probe = probe
        self._vprobe = probe
        self._rebuild_hooks()

    def attach_checker(self, checker) -> None:
        """Attach a vector-aware invariant checker (``--check``)."""
        checker.bind(self)
        self._checker = checker
        self._rebuild_hooks()

    def _rebuild_hooks(self) -> None:
        self._vhooks = tuple(h for h in (self._vprobe, self._checker)
                             if h is not None)

    def enable_profile(self) -> dict:
        """Switch on the per-phase wall-time profiler (see ``profile``)."""
        if self._prof is None:
            self._prof = {"bw": 0.0, "va_sa": 0.0, "st_credit": 0.0,
                          "pc": 0.0, "inject": 0.0,
                          "stepped_cycles": 0, "ff_cycles": 0}
        return self._prof

    def profile(self) -> dict | None:
        """JSON-ready per-phase profile since ``enable_profile``.

        Phase attribution follows the step loop's block structure:
        ``bw`` is arrival processing (buffer writes and bypass
        attempts), ``va_sa`` covers VC allocation, SA request
        collection and switch allocation (including the ST of granted
        flits), ``st_credit`` covers the bucket drains (credit returns,
        ejections, arrival assembly) plus circuit-reuse traversals,
        ``pc`` covers pseudo-circuit candidate scan and maintenance,
        and ``inject`` is the NIC send phase. ``ff_cycles`` counts
        cycles skipped by quiescence fast-forward (zero wall time).
        """
        prof = self._prof
        if prof is None:
            return None
        phases = {k: prof[k]
                  for k in ("bw", "va_sa", "st_credit", "pc", "inject")}
        total = sum(phases.values())
        return {
            "phases": {k: round(v, 6) for k, v in phases.items()},
            "fractions": {k: round(v / total, 4) if total else 0.0
                          for k, v in phases.items()},
            "total_seconds": round(total, 6),
            "stepped_cycles": prof["stepped_cycles"],
            "ff_cycles": prof["ff_cycles"],
        }

    # -- stats attribution hooks ----------------------------------------------
    # Every NetworkStats update flows through one of these methods so the
    # batched subclass (vectorized/batch.py) can redirect each event to
    # the lane it belongs to; the index arguments (ivc/port/opid spaces)
    # carry the lane via integer division by the solo extent.

    def _count_injection(self, t: int, size: int) -> None:
        stats = self.stats
        stats.injected_packets += 1
        stats.injected_flits += size

    def _count_ejections(self, c: int, tpk, sizes) -> None:
        stats = self.stats
        stats.ejected_packets += len(tpk)
        stats.ejected_flits += int(sizes.sum())
        if c >= stats.warmup_cycles:
            lats = c - self.p_create[tpk]
            stats.measured_packets += len(tpk)
            stats.total_latency += int(lats.sum())
            stats.total_network_latency += int(
                (c - self.p_inject[tpk]).sum())
            stats.total_hops += int(self.p_hops[tpk].sum())
            hist = stats.latency_histogram
            for lat in lats.tolist():
                hist[lat] = hist.get(lat, 0) + 1

    def _count_va(self, wivc) -> None:
        self.stats.va_allocations += len(wivc)

    def _count_traversals(self, via: str, popped: bool, ports, hports,
                          e2e_rep, xbar_rep) -> None:
        stats = self.stats
        n = len(ports)
        if via == "sa":
            stats.sa_arbitrations += n
        else:
            stats.sa_bypass_flits += n
            if via == "buf":
                stats.buf_bypass_flits += n
        stats.flit_hops += n
        stats.xbar_flits += n
        if popped:
            stats.buffer_reads += n
        stats.xbar_repeats += int(xbar_rep.sum())
        if hports is not None:
            stats.e2e_packets += len(hports)
            stats.e2e_repeats += int(e2e_rep.sum())

    def _count_terminations(self, pps, reason: Termination) -> None:
        self.stats.pc_terminations[reason] += len(pps)

    def _count_established(self, g_port, refreshed) -> None:
        self.stats.pc_established += len(g_port) - int(refreshed.sum())

    def _count_restored(self, uo) -> None:
        self.stats.pc_restored += len(uo)

    def _count_buffer_writes(self, aivc) -> None:
        self.stats.buffer_writes += len(aivc)

    def check_invariants(self) -> None:
        """One strict ``VectorInvariantChecker`` sweep of the live state
        (the end-of-run check; a failure names router, port and VC)."""
        checker = VectorInvariantChecker(strict=True)
        checker.bind(self)
        checker.sweep(self.cycle)

    # -- ejection (NIC receive side) ------------------------------------------

    def _eject(self, c: int, terms, fids) -> None:
        """Process ejection arrivals due this cycle (Nic.tick_eject)."""
        np = self._np
        n = len(fids)
        self._ej_pending -= n
        # Free the reassembly buffer immediately; the credit lands at the
        # router's ejection port after the configured delay.
        ci = self._lay.ej_opid[terms] * self._V + self.f_vc[fids]
        self._cred_bucket.setdefault(c + self._cd, []).append(ci)
        # At most one flit per packet per cycle (a packet's flits cross
        # their final link on distinct cycles), so plain fancy indexing
        # replaces the scatter-add.
        pks = self.f_pkt[fids]
        rx = self.p_rx[pks] + 1
        self.p_rx[pks] = rx
        tidx = (self.f_tail[fids]).nonzero()[0]
        if not len(tidx):
            return
        tpk = pks[tidx]
        sizes = self.p_size[tpk]
        if (rx[tidx] != sizes).any():
            raise RuntimeError(
                "NIC: tail arrived before all flits of its packet")
        self._count_ejections(c, tpk, sizes)
        np.subtract.at(self.outstanding, self.p_src[tpk], 1)
        hooks = self._vhooks
        if hooks:
            for h in hooks:
                h.vec_ejects(c, terms[tidx])
        # Everything above has read the slots: write each Packet back,
        # drop the core's reference to it and free its slot and block.
        objs = self.p_obj
        p_free = self._p_free
        f_free = self._f_free
        for k, size, fid0 in zip(tpk.tolist(), sizes.tolist(),
                                 (fids[tidx] - sizes + 1).tolist()):
            pkt = objs[k]
            objs[k] = None
            pkt.eject_cycle = c
            pkt.inject_cycle = int(self.p_inject[k])
            pkt.hops = int(self.p_hops[k])
            pkt.sa_bypass_hops = int(self.p_sa[k])
            pkt.buf_bypass_hops = int(self.p_buf[k])
            p_free.append(k)
            f_free[size].append(fid0)

    # -- injection (NIC send side) --------------------------------------------

    def _tick_inject(self, c: int) -> None:
        """Per-NIC: start the head-of-queue packet, then send one flit."""
        np = self._np
        if self._num_queued:
            can = self.hq_valid
            if self._mshrs > 0:
                can = can & (self.outstanding < self._mshrs)
            starters = (can).nonzero()[0]
            if len(starters):
                bases = self._NOVC + starters * self._V
                choice = (None if self._fullrange
                          else self.hq_choice[starters])
                dsts = (self.hq_dst[starters] if self._static_vc
                        else None)
                picks = self._policy_pick(bases, choice, dsts, None)
                okidx = (picks >= 0).nonzero()[0]
                for t, vc in zip(starters[okidx].tolist(),
                                 picks[okidx].tolist()):
                    self._start_packet(c, t, vc)
        if not self._sending_count:
            return
        rows = (self._snd_cnt).nonzero()[0]
        bases = self._NOVC + rows * self._V
        slots = bases[:, None] + self._arV[None, :]
        elig = (self.snd_left[rows] > 0) & (self.cred[slots] > 0)
        if self._V <= 8:
            masks = np.packbits(elig, axis=1,
                                bitorder="little")[:, 0].astype(np.int64)
        else:
            masks = (elig.astype(np.int64)
                     << self._arV[None, :]).sum(axis=1)
        has = masks > 0
        rows, masks, bases = rows[has], masks[has], bases[has]
        if not len(rows):
            return
        vcs = self._rr_pick(masks, self.send_rr[rows], self._V)
        self.send_rr[rows] = (vcs + 1) % self._V
        ci = bases + vcs
        fids = self.snd_next[rows, vcs]
        self.f_vc[fids] = vcs
        self.cred[ci] -= 1
        lay = self._lay
        self._arr_bucket.setdefault(c + 1, []).append(
            (lay.inj_link[rows], lay.inj_ipid[rows], fids))
        self.snd_next[rows, vcs] = fids + 1
        left = self.snd_left[rows, vcs] - 1
        self.snd_left[rows, vcs] = left
        didx = (left == 0).nonzero()[0]
        if len(didx):
            drows = rows[didx]
            self.cred_free[ci[didx]] = True
            self.snd_pid[drows, vcs[didx]] = -1
            self._snd_cnt[drows] -= 1
            self._sending_count -= len(didx)

    def _start_packet(self, c: int, t: int, vc: int) -> None:
        """Pop the queue head into a per-VC transmission (sender VA).

        Scalar on purpose: a couple of starts per cycle is the norm,
        and python-scalar indexing beats fixed-overhead vector ops at
        that size."""
        q = self._queues[t]
        pk = q.popleft()
        self._num_queued -= 1
        if q:
            head = q[0]
            self.hq_choice[t] = self.p_choice[head]
            self.hq_dst[t] = self.p_dst[head]
        else:
            self.hq_valid[t] = False
        self.cred_free[self._NOVC + t * self._V + vc] = False
        self.p_inject[pk] = c
        size = int(self.p_size[pk])
        self._count_injection(t, size)
        hooks = self._vhooks
        if hooks:
            for h in hooks:
                h.vec_inject(c, t)
        self.outstanding[t] += 1
        fid0 = self._take_flits(size)
        self.f_pkt[fid0:fid0 + size] = pk
        self.snd_pid[t, vc] = pk
        self.snd_next[t, vc] = fid0
        self.snd_left[t, vc] = size
        self._snd_cnt[t] += 1
        self._sending_count += 1

    # -- shared vectorized helpers --------------------------------------------

    def _rr_pick(self, masks, nxt, sizes):
        """Vectorized RoundRobinArbiter.grant_mask: one grant per row.

        ``sizes`` is a scalar or per-row array of arbiter sizes; callers
        update the rotation state themselves (``cand + 1 mod size``).
        """
        tab = self._rr_tab
        if tab is not None:
            return tab[(sizes * 256 + masks) * 8 + nxt]
        np = self._np
        full = (np.int64(1) << sizes) - 1
        rot = ((masks >> nxt) | (masks << (sizes - nxt))) & full
        low = rot & -rot
        off = np.bitwise_count(low - 1).astype(np.int64)
        cand = off + nxt
        return np.where(cand >= sizes, cand - sizes, cand)

    def _cumcount(self, keys):
        """Position of each element within its run of equal ``keys``
        (keys must be grouped; order within groups is preserved)."""
        np = self._np
        n = len(keys)
        idx = self._ramp[:n]
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = keys[1:] != keys[:-1]
        gstart = np.maximum.accumulate(np.where(change, idx, 0))
        return idx - gstart

    def _policy_pick(self, bases, choices, dsts, ej_mask):
        """Vectorized VC allocation over credit-space rows.

        ``bases`` are credit indices of vc 0 for each row; returns the
        chosen VC per row or -1. ``ej_mask`` marks ejection rows (None
        when no row can be an ejection port, i.e. NIC injection).
        """
        np = self._np
        slots = bases[:, None] + self._arV[None, :]
        free = self.cred_free[slots]
        if not self._fullrange:
            lay = self._lay
            lo = lay.route_lo[choices]
            hi = lay.route_hi[choices]
            free = free & ((self._arV[None, :] >= lo[:, None])
                           & (self._arV[None, :] < hi[:, None]))
        rows = self._ramp[:len(bases)]
        if not self._static_vc:
            score = np.where(free, self.cred[slots], -1)
            pick = score.argmax(axis=1)
            ok = score[rows, pick] >= 0
            return np.where(ok, pick, -1)
        # Static: destination-designated VC; ejection rows fall back to
        # the first free VC in range (StaticVCAllocation.allocate).
        desig = (dsts % self._V if self._fullrange
                 else lo + dsts % (hi - lo))
        ok = free[rows, desig]
        pick = np.where(ok, desig, -1)
        if ej_mask is not None and ej_mask.any():
            first = free.argmax(axis=1)
            ok_ej = free[rows, first]
            pick = np.where(ej_mask, np.where(ok_ej, first, -1), pick)
        return pick

    # -- router pipeline ------------------------------------------------------

    def _step_routers(self, c: int, arrivals) -> None:
        """Phase 4: the per-router VA/SA/pseudo-circuit pipeline step,
        batched over every router with work this cycle.

        Routers are independent within a cycle (credits and flits they
        emit land at later cycles), so stepping each phase across the
        whole chip is equivalent to the scalar per-router sequential
        step; within a router the scalar phase order is preserved.
        """
        np = self._np
        Pi, Po, V = self._Pi, self._Po, self._V
        prof = self._prof
        if prof is not None:
            t_mark = perf_counter()
        # Work set: routers with buffered flits or arrivals staged this
        # cycle (scalar step() early-returns for all others; maintenance
        # runs only for routers that entered step).
        work_r = self._r_buffered > 0
        if arrivals is not None:
            work_r = work_r.copy()
            work_r[arrivals[0] // Pi] = True
        # With every router in the work set (the common case at load)
        # the per-state masks need no work_r filtering at all.
        wall = bool(work_r.all())
        # Occupancy scan shared by VA and SA: occupied ivcs of work
        # routers in ascending order, their front flits and readiness.
        if self._buffered:
            occm = self.buf_len > 0
            if not wall:
                occm = occm & work_r.repeat(Pi * V)
            occ_idx = (occm).nonzero()[0]
            fronts = self.buf_fid[occ_idx, self.buf_head[occ_idx]]
            fready = self.f_ready[fronts] <= c
            self._va_allocate(c, occ_idx, fronts, fready)
        else:
            occ_idx = fronts = None
            fready = None
        if prof is not None:
            t_now = perf_counter()
            prof["va_sa"] += t_now - t_mark
            t_mark = t_now
        pc_enabled = self._pc_enabled
        if pc_enabled:
            cand_ip, cand_ivc = self._pc_candidates(c, work_r, wall)
        else:
            cand_ip = cand_ivc = ()
        if prof is not None:
            t_now = perf_counter()
            prof["pc"] += t_now - t_mark
            t_mark = t_now
        order, claimed_ip, claimed_op = self._collect_requests(
            c, occ_idx, fronts, fready, cand_ivc)
        if prof is not None:
            t_now = perf_counter()
            prof["va_sa"] += t_now - t_mark
            t_mark = t_now
        # Bypass unblocked candidates; blocked ones join SA (ascending
        # input-port order, matching the scalar candidate dict). The
        # blocked decision is independent across candidates — they have
        # pairwise-distinct inputs and outputs, so one candidate's
        # claims or traversal never flips another's test — which makes
        # the whole classification one batch of mask ops.
        if len(cand_ip):
            copids = self.vc_out_opid[cand_ivc]
            in_busy = self.ip_st[cand_ip] == c
            blocked = (claimed_ip[cand_ip] | claimed_op[copids]
                       | (in_busy != (self.op_st[copids] == c)))
            bidx = (blocked).nonzero()[0]
            if len(bidx):
                bip = cand_ip[bidx]
                bivc = cand_ivc[bidx]
                fresh = self._port_mask[bip] == 0
                self._port_mask[bip] |= np.int64(1) << (bivc % V)
                claimed_ip[bip] = True
                claimed_op[copids[bidx]] = True
                fresh_ports = bip[fresh]
                if len(fresh_ports):
                    order = (np.concatenate([order, fresh_ports])
                             if len(order) else fresh_ports)
            # Unblocked candidates bypass SA in one batch; busy input
            # ports carry streamed circuits (the previous flit of the
            # same connection traverses this cycle) whose flit follows
            # through the held crossbar connection one cycle later —
            # the per-row delay mask.
            fidx = (~blocked).nonzero()[0]
            if len(fidx):
                self._traverse_batch(c, cand_ivc[fidx], "pc",
                                     in_busy[fidx])
        if prof is not None:
            t_now = perf_counter()
            prof["st_credit"] += t_now - t_mark
            t_mark = t_now
        if arrivals is not None:
            self._process_arrivals(c, arrivals, claimed_ip, claimed_op)
        if prof is not None:
            t_now = perf_counter()
            prof["bw"] += t_now - t_mark
            t_mark = t_now
        if len(order):
            self._allocate_switch(c, order)
        if prof is not None:
            t_now = perf_counter()
            prof["va_sa"] += t_now - t_mark
            t_mark = t_now
        if pc_enabled:
            self._pc_maintenance(c, work_r, wall)
        if prof is not None:
            prof["pc"] += perf_counter() - t_mark

    # -- the compiled step ----------------------------------------------------
    # The same phases in the same order with the same timers, each one
    # call into ``kernel.c``; what a phase emits comes back as index
    # arrays and is filed exactly where the numpy phase files it. This
    # fork lasts one PR: the numpy phases below are the path taken when
    # the process has no compiler (EXPERIMENTS.md "PR 20").

    def _step_kernel(self, c: int, arrivals) -> None:
        k = self._kernel
        if arrivals is None:
            n_arr = 0
        else:
            dests, fids = arrivals
            n_arr = len(fids)
            if n_arr > k.capacity:
                raise ProtocolError(
                    f"{n_arr} arrivals in one cycle on {k.capacity} "
                    f"input ports")
            k.in_dest[:n_arr] = dests
            k.in_fid[:n_arr] = fids
        prof = self._prof
        ref = k.ref
        for key, phase in k.phases:
            if prof is not None:
                t_mark = perf_counter()
            emitted = phase(ref, c, n_arr)
            if emitted:
                self._kernel_events(c, emitted)
            if prof is not None:
                prof[key] += perf_counter() - t_mark

    def _kernel_events(self, c: int, emitted: int) -> None:
        """File what one kernel phase emitted: stats and observer hooks
        get the index arrays their numpy twins hand them, traversed
        flits go into the calendars. The arrays are views of buffers
        the next phase overwrites — the stats hooks reduce them at
        once, observers and calendars get copies."""
        k = self._kernel
        if emitted < 0:
            if emitted == E_BOUNDS:
                raise ProtocolError(k.fault())
            error, message = _KERNEL_ERRORS[emitted]
            raise error(message.format(D=self._D))
        (n_va, n_trav, n_head, n_arr, n_ej, n_bw, n_est, n_rest, *n_term,
         via, arr_lo, arr_hi, ej_lo, ej_hi) = k.events.tolist()
        hooks = self._vhooks
        for reason, n, pps in zip(_KERNEL_TERMINATIONS, n_term, k.term):
            if n:
                self._count_terminations(pps[:n], reason)
        if n_va:
            self._count_va(k.va_ivc[:n_va])
        if n_trav:
            via, popped = _KERNEL_VIAS[via]
            hports, e2e_rep = ((k.h_port[:n_head], k.h_e2e[:n_head])
                               if n_head else (None, None))
            self._count_traversals(via, popped, k.t_port[:n_trav], hports,
                                   e2e_rep, k.t_xrep[:n_trav])
            if hooks:
                ivcs = k.t_ivc[:n_trav].copy()
                for h in hooks:
                    h.vec_traversals(c, via, popped, ivcs)
            if popped:
                self._buffered -= n_trav
            self._cred_bucket.setdefault(c + self._cd, []).append(
                k.cr_idx[:n_trav].copy())
            if n_arr:
                self._file(self._arr_bucket, arr_lo, arr_hi,
                           k.a_cycle[:n_arr], (k.a_link[:n_arr],
                                               k.a_dest[:n_arr],
                                               k.a_fid[:n_arr]))
            if n_ej:
                self._ej_pending += n_ej
                self._file(self._ej_bucket, ej_lo, ej_hi, k.e_cycle[:n_ej],
                           (k.e_term[:n_ej], k.e_fid[:n_ej]))
        if n_bw:
            aivc = k.bw_ivc[:n_bw]
            self._buffered += n_bw
            self._count_buffer_writes(aivc)
            if hooks:
                aivc = aivc.copy()
                for h in hooks:
                    h.vec_buffer_writes(c, aivc)
        if n_est:
            self._count_established(k.est_port[:n_est], k.est_ref[:n_est])
        if n_rest:
            self._count_restored(k.rest_op[:n_rest])

    @staticmethod
    def _file(bucket: dict, lo: int, hi: int, cycles, columns) -> None:
        """Append one batch of traversed flits to a calendar, one entry
        per arrival cycle (``_deliver``'s grouping; one cycle is the
        common case)."""
        if lo == hi:
            bucket.setdefault(lo, []).append(
                tuple(col.copy() for col in columns))
            return
        for cycle in range(lo, hi + 1):
            due = cycles == cycle
            if due.any():
                bucket.setdefault(cycle, []).append(
                    tuple(col[due] for col in columns))

    # -- VA stage -------------------------------------------------------------

    def _va_allocate(self, c: int, occ_idx, fronts, fready) -> None:
        """Route idle fronts and allocate output VCs, visiting ports in
        the scalar rotated order (start = cycle % num_inports)."""
        np = self._np
        Pi, Po, V = self._Pi, self._Po, self._V
        st = self.vc_state[occ_idx]
        vam = (st != 2) & fready
        if not vam.any():
            return
        rows = occ_idx[vam]
        rfronts = fronts[vam]
        iidx = (st[vam] == 0).nonzero()[0]
        if len(iidx):
            iivc = rows[iidx]
            ifronts = rfronts[iidx]
            if not self.f_head[ifronts].all():
                raise ProtocolError(
                    "body flit at the front of an idle VC")
            pk = self.f_pkt[ifronts]
            r = iivc // (Pi * V)
            out = self._lay.route_out[r, self.p_choice[pk],
                                     self.p_dst[pk]]
            self.vc_state[iivc] = 1
            self.vc_out_port[iivc] = out
            self.vc_out_opid[iivc] = r * Po + out
        opids = self.vc_out_opid[rows]
        if self._fullrange and not self._static_vc:
            # Dynamic picks never change credit *counts* during the
            # pass, only the free bits — so a pool's successive picks
            # are exactly its free VCs in (credits desc, vc asc) order,
            # and every row's pick is one gather at its service rank
            # (rank = position in the scalar rotated port/vc visit
            # order among rows of the same pool). One composite sort
            # groups rows by pool, service-ordered within it.
            ports = rows // V
            r = ports // Pi
            rotp = (ports - r * Pi - c) % self._lay.nip[r]
            svc = (r * Pi + rotp) * V + rows % V
            order = (opids * self._NIVC + svc).argsort(kind="stable")
            sop = opids[order]
            n = len(sop)
            idxn = self._ramp[:n]
            fmask = np.empty(n, dtype=bool)
            fmask[0] = True
            fmask[1:] = sop[1:] != sop[:-1]
            gstart = np.maximum.accumulate(np.where(fmask, idxn, 0))
            kraw = idxn - gstart
            gid = fmask.cumsum() - 1
            uo = sop[fmask]
            slots = uo[:, None] * V + self._arV[None, :]
            cmax = self._credmax
            big = (cmax + 1) * V
            key = ((cmax - self.cred[slots]) * V
                   + self._arV[None, :]
                   + ~self.cred_free[slots] * big)
            vorder = key.argsort(axis=1)
            skey = np.take_along_axis(key, vorder, 1)
            kpos = np.minimum(kraw, V - 1)
            good = (kraw < V) & (skey[gid, kpos] < big)
            gidx = (good).nonzero()[0]
            if len(gidx):
                wivc = rows[order[gidx]]
                wvc = vorder[gid[gidx], kpos[gidx]]
                ci = sop[gidx] * V + wvc
                self.cred_free[ci] = False
                self.vc_state[wivc] = 2
                self.vc_out_vc[wivc] = wvc
                self.vc_out_cred[wivc] = ci
                self._count_va(wivc)
            return
        sop = opids.copy()
        sop.sort()
        if not (sop[1:] == sop[:-1]).any():
            pk = self.f_pkt[rfronts]
            choices = self.p_choice[pk]
            dsts = self.p_dst[pk]
            ej = self._lay.op_eject[opids]
            picks = self._policy_pick(opids * V, choices, dsts, ej)
            widx = (picks >= 0).nonzero()[0]
            if len(widx):
                wivc = rows[widx]
                wvc = picks[widx]
                ci = opids[widx] * V + wvc
                self.cred_free[ci] = False
                self.vc_state[wivc] = 2
                self.vc_out_vc[wivc] = wvc
                self.vc_out_cred[wivc] = ci
                self._count_va(wivc)
            return
        # Contended: visit ports in the scalar rotated service order
        # (ports rotate by cycle, VCs ascend) via one composite-key
        # sort, then rank rows within their output pool.
        ports = rows // V
        r = ports // Pi
        rotp = (ports - r * Pi - c) % self._lay.nip[r]
        sidx = ((r * Pi + rotp) * V + rows % V).argsort(kind="stable")
        srows = rows[sidx]
        opids = self.vc_out_opid[srows]
        og = opids.argsort(kind="stable")
        rank = np.empty(len(srows), dtype=np.int64)
        rank[og] = self._cumcount(opids[og])
        pk = self.f_pkt[rfronts[sidx]]
        choices = self.p_choice[pk]
        dsts = self.p_dst[pk]
        ej = self._lay.op_eject[opids]
        for k in range(int(rank.max()) + 1):
            rnd = rank == k
            rr = srows[rnd]
            ropid = opids[rnd]
            picks = self._policy_pick(ropid * V, choices[rnd], dsts[rnd],
                                      ej[rnd])
            ok = picks >= 0
            if not ok.any():
                continue
            wivc = rr[ok]
            wvc = picks[ok]
            ci = ropid[ok] * V + wvc
            self.cred_free[ci] = False
            self.vc_state[wivc] = 2
            self.vc_out_vc[wivc] = wvc
            self.vc_out_cred[wivc] = ci
            self._count_va(wivc)

    # -- pseudo-circuit candidates --------------------------------------------

    def _pc_candidates(self, c: int, work_r, wall: bool):
        """Input ports whose circuit's VC has a matching ready front."""
        np = self._np
        Pi, V = self._Pi, self._V
        validm = self.pc_valid
        if not wall:
            validm = validm & work_r.repeat(Pi)
        pp = (validm).nonzero()[0]
        if not len(pp):
            return pp, pp
        civc = pp * V + self.pc_in_vc[pp]
        # Read fronts for every circuit VC unconditionally (stale ring
        # slots of empty VCs still hold valid pool indices), then apply
        # the occupied and ready filters in one pass.
        fronts = self.buf_fid[civc, self.buf_head[civc]]
        live = ((self.buf_len[civc] > 0)
                          & (self.f_ready[fronts] <= c)).nonzero()[0]
        if not len(live):
            return live, live
        pp, civc, fronts = pp[live], civc[live], fronts[live]
        heads = self.f_head[fronts]
        active = self.vc_state[civc] == 2
        if ((~heads) & (~active)).any():
            raise ProtocolError("body flit on inactive VC")
        # Route is known (the VA phase ran first this cycle).
        mismatch = heads & (self.vc_out_port[civc]
                            != self.pc_out_port[pp])
        midx = (mismatch).nonzero()[0]
        if len(midx):
            self._terminate_batch(pp[midx], Termination.ROUTE_MISMATCH)
            keep = (active & ~mismatch).nonzero()[0]
        else:
            keep = (active).nonzero()[0]
        if not len(keep):
            return keep, keep
        pp, civc = pp[keep], civc[keep]
        nidx = (self.cred[self.vc_out_cred[civc]] == 0).nonzero()[0]
        if len(nidx):
            self._terminate_batch(pp[nidx], Termination.NO_CREDIT)
            ok = np.ones(len(pp), dtype=bool)
            ok[nidx] = False
            pp, civc = pp[ok], civc[ok]
        return pp, civc

    # -- SA stage -------------------------------------------------------------

    def _collect_requests(self, c: int, occ_idx, fronts, fready,
                          cand_ivc):
        """Collect SA requests into the shared per-port VC-mask scratch;
        returns (order, claimed_ip, claimed_op)."""
        np = self._np
        V = self._V
        claimed_ip = np.zeros(self._NIP, dtype=bool)
        claimed_op = np.zeros(self._NOP, dtype=bool)
        if occ_idx is None or not len(occ_idx):
            return self._empty_i64, claimed_ip, claimed_op
        req = (self.vc_state[occ_idx] == 2) & fready
        ridx = occ_idx[req]
        if len(cand_ivc):
            iscand = self._iscand
            iscand[cand_ivc] = True
            keep = ~iscand[ridx]
            iscand[cand_ivc] = False
            ridx = ridx[keep]
        if len(ridx):
            ridx = ridx[self.cred[self.vc_out_cred[ridx]] > 0]
        if not len(ridx):
            return self._empty_i64, claimed_ip, claimed_op
        ports = ridx // V
        np.bitwise_or.at(self._port_mask, ports,
                         np.int64(1) << (ridx % V))
        claimed_ip[ports] = True
        claimed_op[self.vc_out_opid[ridx]] = True
        if len(ports) == 1:
            return ports, claimed_ip, claimed_op
        keep = np.empty(len(ports), dtype=bool)
        keep[0] = True
        keep[1:] = ports[1:] != ports[:-1]  # ridx ascending: sorted
        return ports[keep], claimed_ip, claimed_op

    def _allocate_switch(self, c: int, order_arr) -> None:
        """Separable input-first allocation, all arbiters in parallel."""
        np = self._np
        Pi, Po, V = self._Pi, self._Po, self._V
        port_mask = self._port_mask
        masks = port_mask[order_arr]
        port_mask[order_arr] = 0
        # Stage 1: one VC per requesting input port.
        nxt = self.in_arb_next[order_arr]
        cand = self._rr_pick(masks, nxt, V)
        self.in_arb_next[order_arr] = (cand + 1) % V
        givc = order_arr * V + cand
        self._smap[order_arr] = givc
        souts = self.vc_out_opid[givc]
        # Stage 2: one input per requested output, outputs visited in
        # first-seen stage-1 order (per router).
        so = souts.argsort(kind="stable")
        ss = souts[so]
        fm = np.empty(len(ss), dtype=bool)
        fm[0] = True
        fm[1:] = ss[1:] != ss[:-1]
        uo = ss[fm]
        first = so[fm]
        omask = self._omask
        np.bitwise_or.at(omask, souts, np.int64(1) << (order_arr % Pi))
        m2 = omask[uo]
        omask[uo] = 0
        sizes = self._lay.nip[uo // Po]
        w = self._rr_pick(m2, self.out_arb_next[uo], sizes)
        self.out_arb_next[uo] = (w + 1) % sizes
        go = first.argsort(kind="stable")
        g_opid = uo[go]
        g_port = self._op_ipbase[g_opid] + w[go]
        g_ivc = self._smap[g_port]
        # Tails reset vc_out_port during the batch: capture grant output
        # ports first for the establish pass below.
        g_outl = self.vc_out_port[g_ivc]
        g_invc = g_ivc % V
        self._traverse_batch(c, g_ivc, "sa", True)
        if self._pc_enabled:
            self._establish_batch(g_port, g_invc, g_outl, g_opid)

    def _establish_batch(self, g_port, g_invc, g_outl, g_opid) -> None:
        """Router._establish_pc over all SA grants at once.

        The scalar pass runs in grant order because conflict
        terminations read live state, but the only cross-grant couplings
        are (a) a grant whose target output is currently held by a
        *later* grant's port (CONFLICT_OUTPUT fires; an earlier grant
        would have cleared the holder through its own CONFLICT_INPUT
        first) and (b) a grant whose old circuit was already torn down
        by an earlier grant targeting that output (its CONFLICT_INPUT is
        then skipped). Both reduce to order-rank comparisons through
        scatter maps, and the net state writes commute: grants have
        pairwise-distinct inputs and outputs, every grant port ends
        valid with its new register, and each contested output's history
        register receives the same value whichever side records the
        termination.
        """
        np = self._np
        Pi, Po = self._Pi, self._Po
        n = len(g_port)
        g_local = g_port % Pi
        valid0 = self.pc_valid[g_port]
        in0 = self.pc_in_vc[g_port]
        out0 = self.pc_out_port[g_port]
        h0 = self.op_holder[g_opid]
        ordv = self._ramp[:n]
        ordmap = np.full(self._NIP, n, dtype=np.int64)
        ordmap[g_port] = ordv
        outmap = np.full(self._NOP, n, dtype=np.int64)
        outmap[g_opid] = ordv
        vic = h0 >= 0
        vp = self._op_ipbase[g_opid] + np.where(vic, h0, 0)
        outconf = vic & (h0 != g_local) & (ordmap[vp] > ordv)
        old_opid = self._ip_opbase[g_port] + np.where(valid0, out0, 0)
        inconf = valid0 & (out0 != g_outl) & (outmap[old_opid] >= ordv)
        oidx = (outconf).nonzero()[0]
        if len(oidx):
            self._count_terminations(vp[oidx],
                                     Termination.CONFLICT_OUTPUT)
            self.op_hist[g_opid[oidx]] = h0[oidx]
            self.pc_valid[vp[oidx]] = False
        iidx = (inconf).nonzero()[0]
        if len(iidx):
            self._count_terminations(g_port[iidx],
                                     Termination.CONFLICT_INPUT)
            io = old_opid[iidx]
            self.op_hist[io] = g_local[iidx]
            self.op_holder[io] = -1
        refreshed = valid0 & (in0 == g_invc) & (out0 == g_outl)
        self.pc_in_vc[g_port] = g_invc
        self.pc_out_port[g_port] = g_outl
        self.pc_valid[g_port] = True
        self.op_holder[g_opid] = g_local
        self._count_established(g_port, refreshed)

    # -- arrivals: buffer write or buffer bypass ------------------------------

    def _process_arrivals(self, c: int, arrivals, claimed_ip,
                          claimed_op) -> None:
        np = self._np
        V, D = self._V, self._D
        dests, fids = arrivals
        vcs = self.f_vc[fids]
        aivc = dests * V + vcs
        n = len(fids)
        if self._pc_bypass:
            rows = (self.pc_valid[dests]
                              & (self.pc_in_vc[dests] == vcs)
                              & (self.buf_len[aivc] == 0)).nonzero()[0]
            if len(rows):
                # Drop side-effect-free failures early: busy or claimed
                # input port.
                rd = dests[rows]
                rows = rows[(self.ip_st[rd] < c) & ~claimed_ip[rd]]
            if len(rows):
                done = self._bypass_attempts(c, rows, dests, vcs, fids,
                                             claimed_op)
                if len(done) == n:
                    return
                buffered = np.ones(n, dtype=bool)
                buffered[done] = False
                aivc, fids = aivc[buffered], fids[buffered]
                n = len(fids)
        # Buffer writes: a link delivers one flit per cycle, so the
        # arrival VCs are pairwise distinct and plain fancy indexing
        # replaces the scatter-add.
        lens = self.buf_len[aivc]
        if (lens >= D).any():
            raise BufferOverflowError(
                f"flit buffer overflow (capacity {D})")
        self.buf_fid[aivc, (self.buf_head[aivc] + lens) % D] = fids
        self.buf_len[aivc] = lens + 1
        self.f_ready[fids] = c + 1
        np.add.at(self._r_buffered, aivc // (self._Pi * V), 1)
        self._buffered += n
        self._count_buffer_writes(aivc)
        hooks = self._vhooks
        if hooks:
            for h in hooks:
                h.vec_buffer_writes(c, aivc)

    def _bypass_attempts(self, c: int, att, dests, vcs, fids,
                         claimed_op):
        """Router._try_buffer_bypass over all attempt rows at once;
        returns the arrival rows whose flit bypassed. Attempts have
        pairwise-distinct input ports, and each targets the output its
        own valid circuit holds exclusively, so no two rows couple.
        """
        np = self._np
        V, Pi = self._V, self._Pi
        lay = self._lay
        na = len(att)
        prt = dests[att]
        aivc = prt * V + vcs[att]
        afid = fids[att]
        heads = self.f_head[afid]
        st = self.vc_state[aivc]
        if (st != np.where(heads, 0, 2)).any():
            if (heads & (st != 0)).any():
                raise ProtocolError(
                    "head flit arrived on a still-allocated VC")
            raise ProtocolError("body flit arrived on an inactive VC")
        ok = np.ones(na, dtype=bool)
        opid = self.vc_out_opid[aivc]  # body rows: the live circuit
        outl = self.pc_out_port[prt]   # register output = bypass output
        hidx = (heads).nonzero()[0]
        if len(hidx):
            hpk = self.f_pkt[afid[hidx]]
            hr = prt[hidx] // Pi
            out = lay.route_out[hr, self.p_choice[hpk],
                                self.p_dst[hpk]]
            midx = (out != outl[hidx]).nonzero()[0]
            if len(midx):
                # conflicts_with_route: same VC, different output.
                self._terminate_batch(prt[hidx[midx]],
                                      Termination.ROUTE_MISMATCH)
                ok[hidx[midx]] = False
            opid = opid.copy()
            opid[hidx] = self._ip_opbase[prt[hidx]] + out
        ok &= ~claimed_op[opid] & (self.op_st[opid] < c)
        live = (ok).nonzero()[0]
        if not len(live):
            return att[:0]
        lh = live[heads[live]]
        if len(lh):
            lop = opid[lh]
            pk = self.f_pkt[afid[lh]]
            picks = self._policy_pick(lop * V, self.p_choice[pk],
                                      self.p_dst[pk],
                                      lay.op_eject[lop])
            ci = lop * V + np.maximum(picks, 0)
            good = (picks >= 0) & (self.cred[ci] > 0)
            ok[lh] = good
            win = lh[good]
            if len(win):
                wivc = aivc[win]
                wci = ci[good]
                self.cred_free[wci] = False
                self.vc_state[wivc] = 2
                self.vc_out_port[wivc] = outl[win]
                self.vc_out_opid[wivc] = opid[win]
                self.vc_out_vc[wivc] = picks[good]
                self.vc_out_cred[wivc] = wci
                self._count_va(wivc)
        lb = live[~heads[live]]
        if len(lb):
            nidx = (
                self.cred[self.vc_out_cred[aivc[lb]]] == 0).nonzero()[0]
            if len(nidx):
                # Out of credit before the flit arrived: tear the
                # circuit down and buffer normally (Section IV.B).
                self._terminate_batch(prt[lb[nidx]],
                                      Termination.NO_CREDIT)
                ok[lb[nidx]] = False
        fin = (ok).nonzero()[0]
        if len(fin):
            self._traverse_batch(c, aivc[fin], "buf", False, afid[fin])
        return att[fin]

    # -- flit traversal -------------------------------------------------------

    def _deliver(self, arrival, opids, fids) -> None:
        """Route traversed flits into the arrival/ejection buckets.

        ``arrival`` is an int when every output the batch crosses has
        the same latency (``_unilat``, the common case) — a single
        bucket append per kind, no grouping pass.
        """
        np = self._np
        lay = self._lay
        ej = lay.op_eject[opids]
        uniform = not isinstance(arrival, np.ndarray)
        eidx = (ej).nonzero()[0]
        if len(eidx):
            et = lay.op_term[opids[eidx]]
            ef = fids[eidx]
            self._ej_pending += len(eidx)
            if uniform:
                self._ej_bucket.setdefault(arrival, []).append((et, ef))
            else:
                ea = arrival[eidx]
                for a in np.unique(ea).tolist():
                    m = ea == a
                    self._ej_bucket.setdefault(a, []).append(
                        (et[m], ef[m]))
            if len(eidx) == len(opids):
                return
            ne = ~ej
            opids, fids = opids[ne], fids[ne]
            if not uniform:
                arrival = arrival[ne]
        links = lay.op_link[opids]
        dests = lay.op_dest[opids]
        if uniform:
            self._arr_bucket.setdefault(arrival, []).append(
                (links, dests, fids))
            return
        for a in np.unique(arrival).tolist():
            m = arrival == a
            self._arr_bucket.setdefault(a, []).append(
                (links[m], dests[m], fids[m]))

    def _traverse_batch(self, c: int, ivcs, via: str, delayed: bool,
                        fids=None) -> None:
        """Move the front flit of each given VC through the crossbar
        (Router._traverse for SA grants and circuit reuses; at most one
        traversal per input port and per output port per cycle, so all
        index arrays are duplicate-free). With ``fids`` the flits are
        arriving buffer bypasses (``via == "buf"``): nothing is popped
        and no buffer read is charged."""
        np = self._np
        V, Pi = self._V, self._Pi
        n = len(ivcs)
        ports = ivcs // V
        popped = fids is None
        if popped:
            h = self.buf_head[ivcs]
            fids = self.buf_fid[ivcs, h]
            self.buf_head[ivcs] = (h + 1) % self._D
            self.buf_len[ivcs] -= 1
            np.subtract.at(self._r_buffered, ivcs // (Pi * V), 1)
            self._buffered -= n
        self._cred_bucket.setdefault(c + self._cd, []).append(
            self._lay.ip_upbase[ports] + ivcs % V)
        opids = self.vc_out_opid[ivcs]
        outl = self.vc_out_port[ivcs]
        civ = self.vc_out_cred[ivcs]
        self.cred[civ] -= 1
        hidx = (self.f_head[fids]).nonzero()[0]
        if len(hidx):
            hpk = self.f_pkt[fids[hidx]]
            self.p_hops[hpk] += 1
            if via != "sa":
                self.p_sa[hpk] += 1
                if via == "buf":
                    self.p_buf[hpk] += 1
            pair = self.p_pair[hpk]
            hports = ports[hidx]
            e2e_rep = self.ip_last_pair[hports] == pair
            self.ip_last_pair[hports] = pair
        else:
            hports = e2e_rep = None
        xbar_rep = self.ip_last_out[ports] == outl
        self.ip_last_out[ports] = outl
        self._count_traversals(via, popped, ports, hports, e2e_rep,
                               xbar_rep)
        hooks = self._vhooks
        if hooks:
            for h in hooks:
                h.vec_traversals(c, via, popped, ivcs)
        self.f_vc[fids] = self.vc_out_vc[ivcs]
        if isinstance(delayed, np.ndarray):
            # Mixed batch: each row's ST-busy stamp and arrival cycle
            # shift by its own delay; split delivery into the two
            # uniform-arrival groups.
            stc = np.where(delayed, c + 1, c)
            self.ip_st[ports] = stc
            self.op_st[opids] = stc
            nd = ~delayed
            if self._unilat is None:
                lat = self._lay.op_latency[opids]
                arrival = c + 1 + lat + delayed
                self._deliver(arrival, opids, fids)
            else:
                base = c + 1 + self._unilat
                if nd.any():
                    self._deliver(base, opids[nd], fids[nd])
                if delayed.any():
                    self._deliver(base + 1, opids[delayed],
                                  fids[delayed])
        else:
            stc = c + 1 if delayed else c
            self.ip_st[ports] = stc
            self.op_st[opids] = stc
            base = c + (2 if delayed else 1)
            if self._unilat is None:
                self._deliver(base + self._lay.op_latency[opids],
                              opids, fids)
            else:
                self._deliver(base + self._unilat, opids, fids)
        tidx = (self.f_tail[fids]).nonzero()[0]
        if len(tidx):
            tivc = ivcs[tidx]
            self.cred_free[civ[tidx]] = True
            self.vc_state[tivc] = 0
            self.vc_out_port[tivc] = -1
            self.vc_out_opid[tivc] = -1
            self.vc_out_vc[tivc] = -1

    # -- pseudo-circuit bookkeeping -------------------------------------------

    def _terminate_batch(self, pps, reason: Termination) -> None:
        """Terminate a batch of valid circuits (callers guarantee the
        valid bit; valid circuits have pairwise-distinct outputs)."""
        self.pc_valid[pps] = False
        opids = self._ip_opbase[pps] + self.pc_out_port[pps]
        local = pps % self._Pi
        held = self.op_holder[opids] == local
        self.op_holder[opids[held]] = -1
        self.op_hist[opids] = local
        self._count_terminations(pps, reason)

    def _pc_maintenance(self, c: int, work_r, wall: bool) -> None:
        """End-of-cycle upkeep: credit terminations on held outputs,
        speculative restoration on free ones (Router._pc_maintenance).
        Candidate and free-output snapshots are taken before the
        NO_CREDIT pass — its terminations only create candidates at
        their own creditless port, which cannot restore this cycle."""
        np = self._np
        Pi, Po = self._Pi, self._Po
        holder = self.op_holder
        if self._pc_speculation:
            candm = (~self.pc_valid) & (self.pc_in_vc >= 0)
            free_pre = holder == -1
        else:
            candm = None
        heldm = holder >= 0
        if not wall:
            heldm = heldm & work_r.repeat(Po)
        held = (heldm).nonzero()[0]
        if len(held):
            anyc = (self._credview[held] > 0).any(axis=1)
            dead = held[~anyc]
            if len(dead):
                self._terminate_batch(self._op_ipbase[dead] + holder[dead],
                                      Termination.NO_CREDIT)
        if candm is None:
            return
        if not wall:
            candm = candm & work_r.repeat(Pi)
        cp = (candm).nonzero()[0]
        if not len(cp):
            return
        copid = self._ip_opbase[cp] + self.pc_out_port[cp]
        sel = free_pre[copid] & self._lay.op_valid[copid]
        cp, copid = cp[sel], copid[sel]
        if not len(cp):
            return
        so = copid.argsort(kind="stable")
        sc = copid[so]
        fm = np.empty(len(sc), dtype=bool)
        fm[0] = True
        fm[1:] = sc[1:] != sc[:-1]
        uo = sc[fm]
        # Stable sort + ascending cp: first index per group is the
        # lowest register index pointing at that output.
        chosen = cp[so[fm]]
        multi = np.empty(len(sc), dtype=bool)
        multi[-1] = False
        multi[:-1] = ~fm[1:]
        multi = multi[fm]  # group has a second member right after its first
        if multi.any():
            # Several invalidated circuits point here: the history
            # register picks the most recently terminated one, or none.
            hist = self.op_hist[uo]
            histp = self._op_ipbase[uo] + np.maximum(hist, 0)
            okh = ((hist >= 0) & candm[histp]
                   & (self.pc_out_port[histp] == uo % Po))
            chosen = np.where(multi & okh, histp, chosen)
            keep = (~multi) | okh
            uo, chosen = uo[keep], chosen[keep]
            if not len(uo):
                return
        credok = (self._credview[uo] > 0).any(axis=1)
        uo, chosen = uo[credok], chosen[credok]
        if len(uo):
            self.pc_valid[chosen] = True
            self.op_holder[uo] = chosen % Pi
            self._count_restored(uo)
