"""Vectorized structure-of-arrays network core.

``VectorNetwork`` implements the same cycle-level contract as the scalar
``network.simulator.Network`` (see ARCHITECTURE.md "Backends") over a
structure of arrays: all per-(router, port, vc) state lives in flat
int64/bool arrays indexed by the id spaces of ``layout.Layout``, and a
cycle of the whole chip is one call into the compiled ``kernel.c``
(``kernel.py`` builds and loads it on first use) — credit returns,
ejection reassembly, arrivals, the VA | SA | ST | BW | PC pipeline and
the NICs' start + send, written there once. Every supported
configuration produces bit-identical ``NetworkStats`` fingerprints to
the scalar core, cycle by cycle (``tests/network/test_step_kernel.py``,
``test_vectorized_parity.py``).

This module is what stays outside the chip: the traffic loop with its
quiescence fast-forward (a ``SyntheticTraffic`` is handed to the kernel
to draw, any other source ticked into ``inject``: a ``Packet`` becomes a
row of the packet pool at the tail of its source queue), the latency
histogram and the write-back of the ``Packet``s a cycle ejected, the
observer hooks, and the allocation of everything the ``Chip`` points into:

* **pools** — packets and flits are rows of two pools (the ``p_*`` and
  ``f_*`` arrays) recycled at ejection, so storage follows the packets
  in flight rather than the packets ever injected;
* **calendars** — flit arrivals, ejections and credit returns wait in
  rings of ``RD`` slots indexed ``cycle % RD`` (``_rings``), ``RD`` the
  longest link latency plus the credit delay plus one, so the boundary
  links of a chiplet fit;
* **counters** — one row of ``NetworkStats`` integers per lane
  (``counts``); a solo network is the one-lane case, and ``stats`` /
  ``lane_stats`` read the rows.

Observability is array-native (see ``vectorized/obs.py``): probes and
monitors that implement the batched ``vector_hooks`` vocabulary
(``VectorSeriesProbe``, ``VectorInvariantChecker``) attach through
``bind_probe``/``attach_checker`` and receive, after each cycle, the
index arrays the kernel recorded while one was attached;
``enable_profile`` has the kernel time its stages. Deliberately
unsupported (raising ``BackendUnsupportedError``): a process that
cannot build the kernel (no C compiler), per-flit event probes
(``FlitTracer`` and other scalar-protocol instrumentation),
non-tabulable routing algorithms, multidrop (MECS) channels,
non-roundrobin arbiters, and VC policies other than dynamic/static —
use the scalar backend for those.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import partial
from types import SimpleNamespace

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
from .obs import VectorInvariantChecker, summaries

from ..backend import BackendUnsupportedError, require_numpy

# Pool fields and the value a free slot reads; construction, growth and
# the kernel's release at ejection all leave it there.
#: Packet fields filled in flight, which a reused slot must not inherit.
_PACKET_IN_FLIGHT = {"p_inject": -1, "p_hops": 0, "p_sa": 0, "p_buf": 0,
                     "p_rx": 0}
#: The rest are assigned outright by ``inject`` (``p_pair`` is
#: src * T + dst, precomputed there: the e2e-repeat stat compares one
#: gather per traversal instead of two; ``p_next`` links a source
#: queue). ``p_free`` is no field of a slot but the stack of free ones,
#: as deep as the pool.
_PACKET_FIELDS = {"p_src": 0, "p_dst": 0, "p_size": 0, "p_choice": 0,
                  "p_create": 0, "p_pair": 0, "p_next": -1, "p_free": 0,
                  **_PACKET_IN_FLIGHT}
#: Flit fields rewritten at every hop; ``f_pkt`` is assigned when the
#: block is taken, ``f_head``/``f_tail`` are fixed for a block's life
#: and ``f_link`` chains the free blocks of one size.
_FLIT_PER_HOP = {"f_vc": -1, "f_ready": 0}
_FLIT_FIELDS = {"f_pkt": 0, "f_head": False, "f_tail": False, "f_link": -1,
                **_FLIT_PER_HOP}

# The error each negative return code of ``kernel.c`` stands for: the
# one the scalar core raises at the same place.
_KERNEL_ERRORS = {
    -1: (ProtocolError, "body flit at the front of an idle VC"),
    -2: (ProtocolError, "body flit on inactive VC"),
    -3: (ProtocolError, "head flit arrived on a still-allocated VC"),
    -4: (ProtocolError, "body flit arrived on an inactive VC"),
    -5: (BufferOverflowError, "flit buffer overflow (capacity {D})"),
    -6: (RuntimeError, "NIC: tail arrived before all flits of its packet"),
    -7: (ProtocolError, "packet or flit pool exhausted: a cycle took more "
                        "than they were grown for ({pcap}, {fcap} slots)"),
    -8: (ProtocolError, "calendar ring overflow: an event more than "
                        "{RD} cycles ahead, or more in one cycle than "
                        "the chip has links"),
    -10: (RuntimeError, "NIC {t}: source queue overflow ({iq})"),
}
#: One row of ``ej_out`` as ``_after_ejections`` unpacks it; checked
#: against ``kernel.c``'s ``CHIP_EJECTED`` when a network binds.
_EJECTED_ROW = ["slot", "inject_cycle", "hops", "sa_bypass_hops",
                "buf_bypass_hops", "latency", "lane"]
#: The three traversal event lists in the kernel's order (``VIA_*``,
#: the thirds of ``ev_trav``): ``via`` and whether the flit was popped.
_KERNEL_VIAS = (("sa", True), ("pc", True), ("buf", False))
#: ``export_stream``'s ``draw`` in the kernel's order (``DRAW_*``).
_KERNEL_DRAWS = ("table", "uniform", "hotspot")


class VectorNetwork:
    """A complete simulated on-chip network, stepped as one compiled
    call per cycle over flat arrays."""

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
        kernel = load_kernel()
        if kernel.lib is None:
            raise BackendUnsupportedError(kernel.refusal())
        #: ``c:<artifact key>``: the build of ``kernel.c`` this network
        #: steps through (run manifests record it).
        self.step_kernel = kernel.status
        self.rng = random.Random(seed)
        self.cycle = 0

        lay = build_layout(topology, config, self.compiled_routing,
                           lanes=lanes)
        self._lay = lay
        R, T, V, D = lay.R, lay.T, lay.V, lay.D
        Pi, Po = lay.Pi, lay.Po
        if max(V, Pi, Po) > 63:
            # The kernel's VC, port and output masks are 64-bit words and
            # its arbiters rotate them by up to their width.
            raise BackendUnsupportedError(
                f"the vectorized backend supports at most 63 VCs per port "
                f"and 63 ports per router, not {max(V, Pi, Po)} (topology "
                f"{topology.name!r}); use --backend scalar")
        self._R, self._T, self._V, self._D = R, T, V, D
        self._lanes = lanes
        self._T_local = T // lanes
        self._Pi, self._Po = Pi, Po
        NIP, NIVC = lay.NIP, lay.NIVC
        NOP, NOVC = lay.NOP, lay.NOVC
        self._NIP, self._NIVC = NIP, NIVC
        self._NOP, self._NOVC = NOP, NOVC
        i64 = np.int64

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
        self._r_buffered = np.zeros(R, dtype=i64)
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
        # Summaries of the state above, which the kernel keeps and walks
        # instead of it (the table in ``kernel.c``): an empty chip's, all
        # zero but for its credit sums, from the function that says what
        # each means.
        for name, summary in summaries(np, lambda state: getattr(self, state),
                                       R, Pi, Po, V).items():
            setattr(self, name, summary)

        # Packet and flit pools (see "pools" below): a slot lives as
        # long as its packet, so the pools grow to the peak in flight.
        self._kernel = None
        self._pcap = self._size_pool(_PACKET_FIELDS, 0, 512)
        self._fcap = self._size_pool(_FLIT_FIELDS, 0, 1024)
        #: Slot -> the ``Packet`` handed to ``inject`` (its fields are
        #: written back at ejection, when the entry goes); a packet the
        #: kernel's source made has none.
        self.p_obj: dict[int, Packet] = {}
        #: Packet size -> first flit of the free block on top of that
        #: size's stack (-1: none); as long as the largest size seen.
        self.fb_head = np.full(2, -1, dtype=i64)

        # NIC send state: one in-progress transmission per inject VC,
        # and the source queue of packet slots (``p_next`` links it).
        self.snd_pid = np.full((T, V), -1, dtype=i64)
        self.snd_next = np.zeros((T, V), dtype=i64)
        self.snd_left = np.zeros((T, V), dtype=i64)
        self._snd_cnt = np.zeros(T, dtype=i64)    # transmissions per NIC
        self.send_rr = np.zeros(T, dtype=i64)
        self.outstanding = np.zeros(T, dtype=i64)
        self.q_head = np.full(T, -1, dtype=i64)
        self.q_tail = np.full(T, -1, dtype=i64)
        self.q_len = np.zeros(T, dtype=i64)
        # Bound sources (CHIP_SOURCE; ``_drive``), and who drew the last run.
        self.src = np.zeros((lanes, len(kernel.source)), dtype=i64)
        self.src_mt = np.zeros((lanes, 625), dtype=i64)
        self.src_dest = np.zeros((lanes, T // lanes), dtype=i64)
        self.src_row = np.zeros((lanes, T // lanes), dtype=i64)
        self._src_terminals, self.traffic_source = 0, "python"
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
        self._iq = config.inject_queue

        # Calendars: what is due at cycle ``c`` waits in slot ``c % RD``
        # of its ring, a packed list as long as ``ring_n`` says. A slot
        # has room for one flit per input port (arrivals), per terminal
        # (ejections), and for the credit either sends back.
        cd = max(config.credit_delay, 1)
        valid = lay.op_latency[lay.op_valid]
        self._RD = RD = (int(valid.max()) if valid.size else 1) + cd + 1
        self.arr_port = np.zeros((RD, NIP), dtype=i64)
        self.arr_fid = np.zeros((RD, NIP), dtype=i64)
        self.ej_term = np.zeros((RD, T), dtype=i64)
        self.ej_fid = np.zeros((RD, T), dtype=i64)
        self.cr_ci = np.zeros((RD, NIP + T), dtype=i64)
        self.ring_n = np.zeros((3, RD), dtype=i64)
        #: Ring -> its row of ``ring_n`` and the columns of its slots.
        self._rings = {"arrivals": (0, (self.arr_port, self.arr_fid)),
                       "ejections": (1, (self.ej_term, self.ej_fid)),
                       "credits": (2, (self.cr_ci,))}

        # Counters: one row per lane, the integer slots of NetworkStats
        # in the kernel's order, then one per termination reason.
        self._stat_names = kernel.stats
        self._terminations = [Termination[name]
                              for name in kernel.terminations]
        self.counts = np.zeros(
            (lanes, len(kernel.stats) + len(kernel.terminations)), dtype=i64)
        self.lane_warmup = np.zeros(lanes, dtype=i64)
        self._hist: list[dict] = [{} for _ in range(lanes)]
        self._stats = stats if stats is not None else NetworkStats()
        self._hist[0] = self._stats.latency_histogram
        #: Whole-chip scalars shared with the kernel (``CHIP_STATE``).
        self._state = np.zeros(len(kernel.state), dtype=i64)
        (self._S_BUFFERED, self._S_QUEUED, self._S_SENDING,
         self._S_STARTED, self._S_P_FREE, self._S_PACKETS, self._S_FLITS,
         self._S_NEXT_EVENT, self._S_NEXT_INJECTION) = (
             kernel.state.index(name) for name in (
                 "buffered", "queued", "sending", "started", "p_free",
                 "packets", "flits", "next_event", "next_injection"))
        self._state[[self._S_NEXT_EVENT, self._S_NEXT_INJECTION]] = -1
        self._phase_names = kernel.phases
        self._prof_ns = np.zeros(len(kernel.phases), dtype=i64)

        self._pc_enabled = config.pseudo.enabled
        self._bind_kernel(kernel, cd)
        # Observability (see vectorized/obs.py): an optional window
        # probe and/or invariant checker consume the batched hooks
        # after each cycle; ``_vhooks`` holds the attached consumers
        # and the kernel records events only while it is non-empty. The
        # probe binds last — its hooks read the arrays built above.
        self.probe = None
        self._vprobe = None
        self._checker = None
        self._vhooks = ()
        self._prof = None
        if probe is not None:
            self.bind_probe(probe)

    def _bind_kernel(self, kernel, credit_delay: int) -> None:
        """Fill this network's ``Chip``: the kernel names each array as
        this class or its layout does (less a leading underscore)."""
        lay = self._lay
        arrays = {
            name: next(getattr(holder, attr) for holder, attr in (
                (self, name), (self, "_" + name), (lay, name))
                if hasattr(holder, attr))
            for _, name, owner in kernel.arrays if owner == "NET"}
        _, choices, t_local = lay.route_out.shape
        pseudo = self.config.pseudo
        self._kernel = Binding(
            kernel, self._np, arrays,
            dict(R=self._R, Pi=self._Pi, Po=self._Po, V=self._V, D=self._D,
                 C=choices, TL=t_local, LR=self._R // self._lanes,
                 T=self._T, NIP=self._NIP, NOVC=self._NOVC, RD=self._RD,
                 CD=credit_delay, mshrs=self.config.mshrs,
                 inject_queue=self._iq,
                 static_vc=self.vc_policy.name == "static",
                 pc_enabled=pseudo.enabled,
                 pc_speculation=pseudo.speculation,
                 pc_bypass=pseudo.buffer_bypass),
            NOP=self._NOP)
        if kernel.ejected != _EJECTED_ROW:
            raise RuntimeError(
                f"kernel.c hands back {kernel.ejected} per ejected packet, "
                f"core.py unpacks {_EJECTED_ROW}")
        self._cycle = kernel.cycle
        self._chip = self._kernel.ref
        self._event_names = kernel.events
        self._src_names = kernel.source

    # -- pools ----------------------------------------------------------------
    # A packet slot and its contiguous flit block live exactly as long
    # as the packet: the slot is taken at injection, the block by the
    # kernel when the packet starts, and the kernel returns both when
    # the tail is reassembled. The bump allocator is the free stacks'
    # empty case, and the pools never shrink — the stale ids that rings
    # of empty VCs and finished ``snd_next`` slots still hold stay in
    # range, and every reader masks them (``buf_len``, ``snd_left``)
    # before deciding anything from them. Growth happens here, between
    # kernel calls, and re-aims the ``Chip``.

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
            if self._kernel is not None:
                self._kernel.point(name, new)
        return cap

    def _size_classes(self, size: int) -> None:
        """Give packets of ``size`` flits (the largest yet) a free-block
        stack."""
        np = self._np
        heads = np.full(size + 1, -1, dtype=np.int64)
        heads[:len(self.fb_head)] = self.fb_head
        self.fb_head = heads
        self._kernel.point("fb_head", heads)

    @property
    def _nflits(self) -> int:
        """The flit pool's high-water mark."""
        return int(self._state[self._S_FLITS])

    @property
    def _npackets(self) -> int:
        """The packet pool's high-water mark."""
        return int(self._state[self._S_PACKETS])

    def _free_packets(self):
        """The free packet slots, bottom of the stack first."""
        return self.p_free[:self._state[self._S_P_FREE]]

    def _free_blocks(self) -> dict:
        """Packet size -> first flits of the free blocks of that size,
        top of the stack first (walked at most one link per flit ever
        made, so a corrupted chain still ends)."""
        links = self.f_link[:self._nflits].tolist()
        blocks = {}
        for size, fid0 in enumerate(self.fb_head.tolist()):
            chain = []
            while fid0 >= 0 and len(chain) <= len(links):
                chain.append(fid0)
                fid0 = links[fid0] if fid0 < len(links) else -1
            if chain:
                blocks[size] = chain
        return blocks

    def _queued_packets(self) -> list:
        """The packet slots waiting in source queues (at most one link
        walked per slot ever made)."""
        links = self.p_next[:self._npackets].tolist()
        slots = []
        for pk in self.q_head[self.q_len > 0].tolist():
            while 0 <= pk < len(links) and len(slots) <= len(links):
                slots.append(pk)
                pk = links[pk]
        return slots

    def _pending(self, ring: str) -> tuple:
        """Everything still waiting in one calendar, all slots together:
        one array per column of the ring (``_rings``)."""
        np = self._np
        row, columns = self._rings[ring]
        room = columns[0].shape[1]
        waiting = (np.arange(room) < self.ring_n[row][:, None])
        return tuple(column[waiting] for column in columns)

    # -- driving --------------------------------------------------------------

    def inject(self, packet: Packet, lane: int = 0) -> None:
        """Hand a packet to its source NIC (mirrors Nic.enqueue).

        ``packet.src``/``dst`` are lane-local terminal ids; ``lane``
        selects the replicated block (always 0 on a solo network).
        ``p_src`` stores the *global* terminal so the outstanding
        count and per-lane ejection attribution need no extra map,
        while ``p_dst``/``p_pair`` stay lane-local — routing tables and
        the static VC designation hash are indexed by local dst, which
        keeps every lane bit-identical to its solo run.
        """
        t = packet.src + lane * self._T_local
        if 0 < self._iq <= self.q_len[t]:
            raise RuntimeError(
                f"NIC {t}: source queue overflow ({self._iq})")
        if self._on_inject is not None:
            rng = self.nic_rngs.get(t)
            if rng is None:
                rng = self.nic_rngs[t] = random.Random(self._nic_seeds[t])
            self._on_inject(packet, rng)
        if packet.size >= len(self.fb_head):
            self._size_classes(packet.size)
        # A packet slot reading its initial in-flight values: the top of
        # the free stack, else the next past the high-water mark.
        state = self._state
        free = state[self._S_P_FREE]
        if free:
            state[self._S_P_FREE] = free - 1
            pk = int(self.p_free[free - 1])
        else:
            pk = int(state[self._S_PACKETS])
            if pk >= self._pcap:
                self._pcap = self._size_pool(_PACKET_FIELDS, self._pcap,
                                             pk + 1)
            state[self._S_PACKETS] = pk + 1
        self.p_obj[pk] = packet
        self.p_src[pk] = t
        self.p_dst[pk] = packet.dst
        self.p_pair[pk] = packet.src * self._T_local + packet.dst
        self.p_size[pk] = packet.size
        self.p_choice[pk] = packet.route_choice
        self.p_create[pk] = packet.create_cycle
        self.p_next[pk] = -1
        tail = self.q_tail[t]
        if tail < 0:
            self.q_head[t] = pk
        else:
            self.p_next[tail] = pk
        self.q_tail[t] = pk
        self.q_len[t] += 1
        state[self._S_QUEUED] += 1

    def step(self) -> None:
        """Advance the whole network by one cycle."""
        c = self.cycle
        hooks = self._vhooks
        if hooks:
            for h in hooks:
                h.on_cycle_start(c, self)
        state = self._state
        offered = self._src_terminals
        queued = int(state[self._S_QUEUED]) + offered
        if queued:
            # One start per terminal per cycle (a bound source may queue
            # one at each of its own first), each of at most the largest
            # size seen: the most fresh flits, and slots, this call takes.
            need = int(state[self._S_FLITS]) + (
                min(queued, self._T) * (len(self.fb_head) - 1))
            if need > self._fcap:
                self._fcap = self._size_pool(_FLIT_FIELDS, self._fcap, need)
            need = offered and offered + int(
                state[self._S_PACKETS] - state[self._S_P_FREE])
            if need > self._pcap:
                self._pcap = self._size_pool(_PACKET_FIELDS, self._pcap, need)
        # Lane 0's warm-up is ``stats.warmup_cycles``, which a caller may
        # set any time before the run.
        self.lane_warmup[0] = self._stats.warmup_cycles
        ejected = self._cycle(self._chip, c)
        if ejected:
            self._after_ejections(c, ejected)
        if hooks:
            self._dispatch(c, hooks)
        if self._prof is not None:
            self._prof["stepped_cycles"] += 1
        self.cycle = c + 1

    def _after_ejections(self, c: int, ejected: int) -> None:
        """Count the latency of each packet the kernel ejected and, if it
        came in as a ``Packet``, write it back and drop the core's
        reference to it (the slot and its flit block are free already)
        — or raise the error a negative return code stands for."""
        if ejected < 0:
            if ejected == E_BOUNDS:
                raise ProtocolError(self._kernel.fault())
            error, message = _KERNEL_ERRORS[ejected]
            raise error(message.format(
                D=self._D, RD=self._RD, fcap=self._fcap, pcap=self._pcap,
                iq=self._iq, t=self._kernel.chip.err_idx))
        width = len(_EJECTED_ROW)
        rows = self._kernel.ej_out[:ejected * width].tolist()
        objs = self.p_obj
        hists = self._hist
        for at in range(0, len(rows), width):
            k, inject, hops, sa, buf, latency, lane = rows[at:at + width]
            pkt = objs.pop(k, None)
            if pkt is not None:
                pkt.eject_cycle = c
                pkt.inject_cycle = inject
                pkt.hops = hops
                pkt.sa_bypass_hops = sa
                pkt.buf_bypass_hops = buf
            if latency >= 0:
                hist = hists[lane]
                hist[latency] = hist.get(latency, 0) + 1

    def _dispatch(self, c: int, hooks) -> None:
        """Hand the attached observers the events of cycle ``c``, one
        batched call per kind (copies: the kernel reuses the buffers)."""
        k = self._kernel
        events = self._event_names
        n = dict(zip(events, k.n[:len(events)].tolist()))
        if n["ej"]:
            terminals = k.ev_ej[:n["ej"]].copy()
            for h in hooks:
                h.vec_ejects(c, terminals)
        for (via, popped), base in zip(
                _KERNEL_VIAS, range(0, 3 * self._NIP, self._NIP)):
            if n[via]:
                ivcs = k.ev_trav[base:base + n[via]].copy()
                for h in hooks:
                    h.vec_traversals(c, via, popped, ivcs)
        if n["bw"]:
            ivcs = k.ev_bw[:n["bw"]].copy()
            for h in hooks:
                h.vec_buffer_writes(c, ivcs)
        for t in k.ev_inj[:n["inj"]].tolist():
            for h in hooks:
                h.vec_inject(c, t)
        for h in hooks:
            h.vec_cycle_end(c, self)

    def fast_forward(self, bound: int, *traffic_next: int | None) -> None:
        """Skip to the next scheduled event if nothing acts per-cycle."""
        if self._busy():
            return
        target = bound
        for event in (int(self._state[self._S_NEXT_EVENT]), *traffic_next):
            if event is not None and 0 <= event < target:
                target = event
        if target > self.cycle:
            if self._prof is not None:
                self._prof["ff_cycles"] += target - self.cycle
            self.cycle = target

    def run(self, cycles: int, traffic=None) -> NetworkStats:
        """Run for ``cycles`` cycles, ticking ``traffic`` once per cycle."""
        self._drive([traffic], [self.cycle + cycles])
        return self.stats

    def _drive(self, traffics, ends) -> None:
        """The traffic loop: lane ``i`` is offered ``traffics[i]`` every
        cycle before ``ends[i]``; cycles in which nothing acts and no
        source injects are skipped. A source that hands over its stream
        (``SyntheticTraffic.export_stream``) is drawn by the kernel and
        takes it back on the way out — unless the routing hooks injection
        (O1TURN's draw, ``weighted``'s class) and needs the ``Packet``; any
        other is ticked into ``inject``, every cycle if it cannot say when."""
        end_all, here = max(ends), (self.cycle, self._T_local)
        bound, ticked = [], []
        for lane, (traffic, end) in enumerate(zip(traffics, ends)):
            stream = None if self._on_inject else getattr(
                traffic, "export_stream", lambda *_: None)(*here)
            if stream is not None:
                if stream["size"] >= len(self.fb_head):
                    self._size_classes(stream["size"])
                self.src_mt[lane] = stream["mt"]
                self.src_dest[lane] = stream["table"]
                self.src_row[lane, :len(stream["row"])] = stream["row"]
                fields = dict(stream, end=end, pending=len(stream["row"]),
                              draw=_KERNEL_DRAWS.index(stream["draw"]))
                self.src[lane] = [fields[name] for name in self._src_names]
                bound.append((lane, traffic))
            elif traffic is not None:
                sink = SimpleNamespace(inject=partial(self.inject, lane=lane))
                ticked.append((end, partial(traffic.tick, sink), getattr(
                    traffic, "next_injection_cycle", lambda cycle: cycle)))
        if bound or ticked:
            self.traffic_source = "python" if ticked else "kernel"
        self._src_terminals = len(bound) * self._T_local
        try:
            while self.cycle < end_all:
                c = self.cycle
                for end, tick, _ in ticked:
                    if c < end:
                        tick(c)
                self.step()
                # A busy chip skips nothing: don't ask the sources then.
                if not self._busy():
                    c = self.cycle
                    self.fast_forward(
                        end_all, int(self._state[self._S_NEXT_INJECTION]),
                        *[ask(c) for end, _, ask in ticked if c < end])
        finally:
            self._src_terminals = 0
            for lane, traffic in bound:
                src = dict(zip(self._src_names, self.src[lane].tolist()))
                traffic.restore_stream(
                    self.src_mt[lane].tolist(), src["drawn_until"],
                    self.src_row[lane, :src["pending"]].tolist(),
                    src["generated"])
                self.src[lane] = 0   # ``end``: the window is closed

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
                self.fast_forward(deadline)
        return self.stats

    # -- queries --------------------------------------------------------------

    @property
    def _buffered(self) -> int:
        return int(self._state[self._S_BUFFERED])

    @property
    def _num_queued(self) -> int:
        return int(self._state[self._S_QUEUED])

    def _busy(self) -> bool:
        """Whether a flit or packet is anywhere on the chip that acts
        every cycle: buffered, queued at a NIC or being sent (what only
        waits in a calendar can be fast-forwarded to)."""
        state = self._state
        return bool(state[self._S_BUFFERED] or state[self._S_QUEUED]
                    or state[self._S_SENDING])

    def in_flight_packets(self) -> int:
        state = self._state
        return int(state[self._S_QUEUED] + state[self._S_STARTED])

    def quiescent(self) -> bool:
        return not self.in_flight_packets()

    def _read_counts(self, stats: NetworkStats, lane: int) -> NetworkStats:
        """Copy one lane's row of ``counts`` into ``stats``."""
        row = self.counts[lane].tolist()
        names = self._stat_names
        for name, value in zip(names, row):
            setattr(stats, name, value)
        stats.pc_terminations = Counter(
            {reason: n for reason, n in zip(self._terminations,
                                            row[len(names):]) if n})
        return stats

    @property
    def stats(self) -> NetworkStats:
        """The counters of lane 0 — on a solo network, the run's —
        as of this read. It is the same object every time (set
        ``warmup_cycles`` on it before a run), refreshed from ``counts``
        on each access."""
        return self._read_counts(self._stats, 0)

    def lane_stats(self, lane: int) -> NetworkStats:
        """Extract one lane's counters as a solo-identical NetworkStats."""
        stats = NetworkStats(warmup_cycles=int(self.lane_warmup[lane]))
        stats.latency_histogram = dict(self._hist[lane])
        return self._read_counts(stats, lane)

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
        self._kernel.chip.events_on = bool(self._vhooks)

    def enable_profile(self) -> dict:
        """Switch on the per-phase wall-time profiler (see ``profile``)."""
        if self._prof is None:
            self._prof = {"stepped_cycles": 0, "ff_cycles": 0}
            self._kernel.chip.profile_on = True
        return self._prof

    def profile(self) -> dict | None:
        """JSON-ready per-phase profile since ``enable_profile``.

        The kernel reads the clock between its stages: ``bw`` is
        arrival processing (buffer writes and bypass attempts),
        ``va_sa`` covers the cycle's router lists, VC allocation over
        the waiting fronts, SA request collection over the occupied
        active VCs and switch allocation (including the ST of granted
        flits), ``st_credit`` covers the calendars' due slots (credit
        returns, ejections, arrival staging) plus circuit-reuse
        traversals, ``pc`` covers the candidate scan over valid
        circuits and maintenance of held and restorable outputs, and
        ``inject`` is the NIC start + send stage. What Python does
        around the call (traffic, ``inject``, the write-back of ejected
        packets, observers) is in none of them. ``ff_cycles`` counts
        cycles skipped by quiescence fast-forward (zero wall time).
        """
        prof = self._prof
        if prof is None:
            return None
        phases = {name: ns / 1e9 for name, ns in zip(
            self._phase_names, self._prof_ns.tolist())}
        total = sum(phases.values())
        return {
            "phases": {k: round(v, 6) for k, v in phases.items()},
            "fractions": {k: round(v / total, 4) if total else 0.0
                          for k, v in phases.items()},
            "total_seconds": round(total, 6),
            "stepped_cycles": prof["stepped_cycles"],
            "ff_cycles": prof["ff_cycles"],
        }

    def check_invariants(self) -> None:
        """One strict ``VectorInvariantChecker`` sweep of the live state
        (the end-of-run check; a failure names router, port and VC)."""
        checker = VectorInvariantChecker(strict=True)
        checker.bind(self)
        checker.sweep(self.cycle)
