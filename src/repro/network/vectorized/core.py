"""Vectorized structure-of-arrays network core.

``VectorNetwork`` implements the same cycle-level contract as the scalar
``network.simulator.Network`` (see ARCHITECTURE.md "Backends") over a
structure of arrays: all per-(router, port, vc) state lives in flat
arrays indexed by the id spaces of ``layout.Layout`` — each of the
element type ``kernel.c``'s ``CHIP_ARRAYS`` gives it (``kernel.dtypes``;
state, ids, pools and calendars in 32 bits, counters, masks and
whole-chip scalars in 64, flags in bytes) — and a
window of cycles of the whole chip is one call into the compiled
``kernel.c`` (``kernel.py`` builds and loads it on first use) — credit
returns, ejection reassembly, arrivals, the VA | SA | ST | BW | PC
pipeline, the NICs' start + send and the skipping of cycles nothing
acts in, written there once. Every supported configuration produces
bit-identical ``NetworkStats`` fingerprints to the scalar core, cycle by
cycle (``tests/network/test_step_kernel.py``,
``test_vectorized_parity.py``).

This module is what stays outside the chip: the traffic loop (a
``SyntheticTraffic`` is handed to the kernel to draw, any other source
ticked into ``inject``), what a call hands back (pools to grow,
``Packet``s to write back, observer hooks, errors), ``reset``, and the
allocation of everything the ``Chip`` points into. A delivery callback
(``attach_delivery``, the scalar ``Nic.on_packet``; the CMP's endpoints)
runs in the middle of its cycle: while one is attached, a cycle whose
ejection stage closed a ``Packet`` comes back after that stage
(``RUN_DELIVER``), the callbacks run, terminals ascending, and may
inject, and the next call finishes the cycle -- what they inject may
start in it, as on the scalar core:

* **pools** — packets and flits are rows of two pools (the ``p_*`` and
  ``f_*`` arrays) recycled at ejection, so storage follows the packets
  in flight rather than the packets ever injected;
* **calendars** — flit arrivals, ejections and credit returns wait in
  rings of ``RD`` slots indexed ``cycle % RD`` (``_rings``), ``RD`` the
  longest link latency plus the credit delay plus one, so the boundary
  links of a chiplet fit;
* **counters** — one row of ``NetworkStats`` integers and one of the
  latency histogram per lane (``counts``, ``hist``); a solo network is
  the one-lane case, and ``stats`` / ``lane_stats`` read the rows;
* **widths** — an id, pool slot or cycle a 32-bit array could not hold
  is refused by name before it is written (``kernel.fits``): at layout
  build, when a pool grows, at ``inject`` and for the window of a run or
  a skip.

Observability is array-native: a probe with ``vector_hooks`` set
(``TimeSeriesProbe``) attaches through ``bind_probe``, and after each
cycle its one call, ``vec_cycle_end``, reads the index arrays the kernel
recorded of that cycle while it was bound (``events``); the invariant
checker (``attach_checker``, ``--check``) has the kernel walk the chip
every ``stride`` cycles it steps (``kernel.c``'s ``check_chip``), inside
the same call; ``enable_profile`` has the kernel time its stages.
Deliberately
unsupported (raising ``BackendUnsupportedError``): a process that
cannot build the kernel (no C compiler), per-flit event probes
(``FlitTracer`` and other scalar-protocol instrumentation), multidrop
(MECS) channels, and VC policies other than dynamic/static — use the
scalar backend for those.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from functools import partial
from operator import itemgetter
from types import SimpleNamespace

from ...core.pseudo_circuit import Termination
from ...metrics.stats import NetworkStats
from ...routing import RoutingAlgorithm, compile_routing, make_routing
from ...topology.base import Topology
from ...vcalloc import make_vc_policy
from ..config import NetworkConfig
from ..errors import BufferOverflowError, ProtocolError
from ..flit import Packet
from .kernel import (E_BOUNDS, RUN_DELIVER, RUN_DONE, RUN_FOUND, RUN_GROW,
                     Binding, dtypes, fits, room, summaries)
from .kernel import load as load_kernel
from .layout import build_layout

from ..backend import BackendUnsupportedError, require_numpy

# Pool fields and the value a free slot reads; construction, growth, the
# kernel's release at ejection and ``reset`` all leave it there.
#: Packet fields filled in flight, which a reused slot must not inherit
#: (``p_held``: a ``Packet`` waits in ``p_obj`` for the slot's fields at
#: ejection, set by ``inject``).
_PACKET_IN_FLIGHT = {"p_inject": -1, "p_hops": 0, "p_sa": 0, "p_buf": 0,
                     "p_rx": 0, "p_held": 0}
#: The rest are assigned outright by ``inject`` (``p_pair`` is
#: src * T + dst, precomputed there: the e2e-repeat stat compares one
#: gather per traversal instead of two; ``p_next`` links a source
#: queue). ``p_free`` is no field of a slot but the stack of free ones,
#: as deep as the pool; ``p_mark`` and ``f_mark`` are zero but while
#: ``kernel.c``'s walk counts the pools in them.
_PACKET_FIELDS = {"p_src": 0, "p_dst": 0, "p_size": 0, "p_choice": 0,
                  "p_create": 0, "p_pair": 0, "p_next": -1,
                  "p_free": 0, "p_mark": 0, **_PACKET_IN_FLIGHT}
#: Flit fields rewritten at every hop; ``f_pkt`` is assigned when the
#: block is taken, ``f_head``/``f_tail`` are fixed for a block's life
#: and ``f_link`` chains the free blocks of one size.
_FLIT_FIELDS = {"f_pkt": 0, "f_head": False, "f_tail": False, "f_link": -1,
                "f_vc": -1, "f_mark": 0}
#: The array that keeps each pool's ids, which its size must fit.
_POOL_IDS = {"p_next": "packet slots", "f_link": "flit ids"}
_HIST_WIDTH = 256  #: histogram columns at first (``_after_ejections`` widens)

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
}
#: One row of ``ej_out`` as ``_after_ejections`` unpacks it; checked
#: against ``kernel.c``'s ``CHIP_EJECTED`` when a network binds.
_EJECTED_ROW = ["slot", "eject_cycle", "inject_cycle", "hops",
                "sa_bypass_hops", "buf_bypass_hops", "latency", "lane",
                "held"]
#: The three traversal event lists in the kernel's order (``VIA_*``,
#: the thirds of ``ev_trav``): ``via`` and whether the flit was popped.
_KERNEL_VIAS = (("sa", True), ("pc", True), ("buf", False))
#: ``export_stream``'s ``draw`` in the kernel's order (``DRAW_*``).
_KERNEL_DRAWS = ("table", "uniform", "hotspot")


class VectorNetwork:
    """A complete simulated on-chip network, stepped as one compiled
    call per window of cycles over flat arrays."""

    def __init__(self, topology: Topology, config: NetworkConfig,
                 routing="xy", vc_policy="dynamic", seed: int = 1,
                 lanes: int = 1, lane_seeds=None):
        np = require_numpy()
        self._np = np
        self.topology = topology
        if isinstance(routing, str):
            routing = make_routing(routing, topology)
        self.routing = routing
        #: The routing's tables, shared with every network of either
        #: core built on the same routing instance.
        self.compiled = compile_routing(routing, topology, config.num_vcs)
        lay = build_layout(topology, config, self.compiled, lanes=lanes)
        self._lay = lay
        kernel = load_kernel()
        if kernel.lib is None:
            raise BackendUnsupportedError(kernel.refusal())
        #: ``c:<artifact key>``: the build of ``kernel.c`` this network
        #: steps through (run manifests record it).
        self.step_kernel = kernel.status

        R, T, V, D = lay.R, lay.T, lay.V, lay.D
        Pi, Po = lay.Pi, lay.Po
        if max(V, Pi, Po) > 63:
            # The kernel's VC, port and output masks are 64-bit words and
            # its arbiters rotate them by up to their width.
            raise BackendUnsupportedError(
                f"the vectorized backend supports at most 63 VCs per port "
                f"and 63 ports per router, not {max(V, Pi, Po)} (topology "
                f"{topology.name!r}); use --backend scalar")
        TL = T // lanes
        table = dtypes()
        self._R, self._T, self._V, self._D = R, T, V, D
        self._lanes, self._T_local, self._Pi, self._Po = lanes, TL, Pi, Po
        NIP, NIVC, NOP, NOVC = lay.NIP, lay.NIVC, lay.NOP, lay.NOVC
        self._NIP, self._NIVC, self._NOP, self._NOVC = NIP, NIVC, NOP, NOVC
        # Calendars: what is due at cycle ``c`` waits in slot ``c % RD``
        # of its ring, a packed list as long as ``ring_n`` says. A slot
        # has room for one flit per input port (arrivals), per terminal
        # (ejections), and for the credit either sends back.
        cd = max(config.credit_delay, 1)
        valid = lay.op_latency[lay.op_valid]
        self._RD = RD = (int(valid.max()) if valid.size else 1) + cd + 1

        #: Kernel name -> the value every element of that array starts
        #: at (or the array it starts as): all the kernel reads and
        #: writes but the layout, which ``reset`` fills with it again.
        self._starts = starts = {}
        for name, shape, start in (
                # Input VC state (vc.VCState: 0 idle, 1 va, 2 active),
                # route, output VC and credit index; input buffers (rings
                # of flit pool ids); flits buffered per router.
                ("vc_state", NIVC, 0), ("vc_out_port", NIVC, -1),
                ("vc_out_opid", NIVC, -1), ("vc_out_vc", NIVC, -1),
                ("vc_out_cred", NIVC, 0), ("buf_fid", (NIVC, D), 0),
                ("buf_head", NIVC, 0), ("buf_len", NIVC, 0),
                # Writes less reads of each buffer, which the walk holds
                # ``buf_len`` to while a checker is attached.
                ("_buf_shadow", NIVC, 0), ("_r_buffered", R, 0),
                # Pseudo-circuit registers per input port (``ip_st``: the
                # st_busy_cycle), output holders (local in ports) and
                # history registers, arbiters; credits with no owner.
                ("pc_in_vc", NIP, -1), ("pc_out_port", NIP, -1),
                ("pc_valid", NIP, False), ("ip_st", NIP, -1),
                ("ip_last_out", NIP, -1), ("ip_last_pair", NIP, -1),
                ("op_st", NOP, -1), ("op_holder", NOP, -1),
                ("op_hist", NOP, -1), ("in_arb_next", NIP, 0),
                ("out_arb_next", NOP, 0), ("cred_free", lay.NCRED, True),
                # Packet size -> top free block of that size (-1: none).
                ("fb_head", 2, -1),
                # NIC send state: one transmission per inject VC, and the
                # source queue of packet slots (``p_next`` links it).
                ("snd_pid", (T, V), -1), ("snd_next", (T, V), 0),
                ("snd_left", (T, V), 0), ("_snd_cnt", T, 0),
                ("send_rr", T, 0), ("outstanding", T, 0),
                ("q_head", T, -1), ("q_tail", T, -1), ("q_len", T, 0),
                # Bound sources (CHIP_SOURCE; ``_drive``), the calendars.
                ("src", (lanes, len(kernel.source)), 0),
                ("src_mt", (lanes, 625), 0), ("src_dest", (lanes, TL), 0),
                ("src_row", (lanes, TL), 0),
                ("arr_port", (RD, NIP), 0), ("arr_fid", (RD, NIP), 0),
                ("ej_term", (RD, T), 0), ("ej_fid", (RD, T), 0),
                ("cr_ci", (RD, NIP + T), 0), ("ring_n", (3, RD), 0),
                # Per lane: NetworkStats' integers in the kernel's order
                # then one per termination reason, warm-up, latency
                # histogram; the kernel's stage timers.
                ("counts", (lanes, len(kernel.stats)
                            + len(kernel.terminations)), 0),
                ("lane_warmup", lanes, 0), ("hist", (lanes, _HIST_WIDTH), 0),
                ("_prof_ns", len(kernel.phases), 0)):
            setattr(self, name, np.full(shape, start,
                                        dtype=table[name.lstrip("_")]))
            starts[name.lstrip("_")] = start
        # Unified credit space: router output VCs then NIC inject VCs.
        self.cred = lay.cred_init.copy()
        starts["cred"] = lay.cred_init
        # Summaries of the state above, which the kernel keeps and walks
        # instead of it (the table in ``kernel.c``): an empty chip's, all
        # zero but for its credit sums, from the function that says what
        # each means.
        for name, summary in summaries(np, lambda state: getattr(self, state),
                                       R, Pi, Po, V).items():
            setattr(self, name, summary.astype(table[name]))
            starts[name] = getattr(self, name).copy()
        #: Whole-chip scalars shared with the kernel (``CHIP_STATE``), at
        #: ``self._S_<NAME>``; no cycle yet to act in or asked the pools.
        for index, name in enumerate(kernel.state):
            setattr(self, f"_S_{name.upper()}", index)
        self._state = np.zeros(len(kernel.state), dtype=table["state"])
        self._state[[self._S_NEXT_ACT, self._S_ASKED]] = -1
        starts["state"] = self._state.copy()

        # Packet and flit pools (see "pools" below): a slot lives as
        # long as its packet, so the pools grow to the peak in flight.
        self._kernel = None
        self._pcap = self._size_pool(_PACKET_FIELDS, 0, 512)
        self._fcap = self._size_pool(_FLIT_FIELDS, 0, 1024)
        starts.update(_PACKET_FIELDS, **_FLIT_FIELDS)
        hooked = type(routing).on_inject is not RoutingAlgorithm.on_inject
        self._on_inject = routing.on_inject if hooked else None
        #: Ring -> its row of ``ring_n`` and the columns of its slots.
        self._rings = {"arrivals": (0, (self.arr_port, self.arr_fid)),
                       "ejections": (1, (self.ej_term, self.ej_fid)),
                       "credits": (2, (self.cr_ci,))}
        self._stat_names = kernel.stats
        self._terminations = [Termination[name]
                              for name in kernel.terminations]
        (self._phase_names, self._event_names, self._src_names) = (
            kernel.phases, kernel.events, kernel.source)
        if kernel.ejected != _EJECTED_ROW:
            raise RuntimeError(
                f"kernel.c hands back {kernel.ejected} per ejected packet, "
                f"core.py unpacks {_EJECTED_ROW}")
        # The Chip: the kernel names each array as this class or its
        # layout does (less a leading underscore); the scratch and
        # hand-back buffers the Binding allocates start at zero.
        arrays = {
            name: next(getattr(holder, attr) for holder, attr in (
                (self, name), (self, "_" + name), (lay, name))
                if hasattr(holder, attr))
            for _, name, owner in kernel.arrays if owner == "NET"}
        self._kernel = Binding(
            kernel, np, arrays,
            dict(R=R, Pi=Pi, Po=Po, V=V, D=D, C=lay.route_out.shape[1],
                 TL=TL, T=T, NIP=NIP, NOVC=NOVC,
                 RD=RD, CD=cd), NOP=NOP)
        starts.update((name, 0) for _, name, owner in kernel.arrays
                      if owner != "NET")
        self._call, self._chip = kernel.run, self._kernel.ref
        #: The ``Chip``'s arrays as memoryviews (``Binding.view``), the
        #: way ``inject`` and the per-call glue reach single elements;
        #: the last cycle ``p_create`` holds.
        self._view, self._cycle_room = self._kernel.view, room("p_create")
        #: The walk (``check_chip``), the names of what it answers and of
        #: its record (the Binding's ``walk``).
        self._check_call, self._checks = kernel.check_chip, kernel.checks
        self._walk_names = kernel.walk
        self.config, self.vc_policy = config, vc_policy
        VectorNetwork.reset(self, seed, config, vc_policy, lane_seeds)

    def reset(self, seed: int = 1, config: NetworkConfig | None = None,
              vc_policy=None, lane_seeds=None) -> None:
        """Back to the state of a network newly built on this chip with
        ``seed`` (a batch: ``lane_seeds``), ``config`` and ``vc_policy``
        (by default its own): every array of the ``Chip`` but the layout
        at its value at construction (the pools and the histogram keep
        their size), the seeds drawn again, a new ``NetworkStats``, no
        ``Packet``, observer or profiler. The scheme, the MSHR gate and
        the VC policy are flags; ``config`` may differ in those alone."""
        config, vc_policy = config or self.config, vc_policy or self.vc_policy
        if replace(self.config, pseudo=config.pseudo,
                   mshrs=config.mshrs) != config:
            raise ValueError(f"reset cannot change the layout of a chip "
                             f"built for {self.config}: got {config}")
        if isinstance(vc_policy, str):
            vc_policy = make_vc_policy(vc_policy)
        if vc_policy.name not in ("dynamic", "static"):
            raise BackendUnsupportedError(
                f"the vectorized backend supports only the dynamic and "
                f"static VC policies, not {vc_policy.name!r} (topology "
                f"{self.topology.name!r}); use --backend scalar")
        self.config, self.vc_policy = config, vc_policy
        pseudo, chip = config.pseudo, self._kernel.chip
        self._pc_enabled = chip.pc_enabled = pseudo.enabled
        chip.pc_speculation = pseudo.speculation
        chip.pc_bypass = pseudo.buffer_bypass
        chip.static_vc = vc_policy.name == "static"
        chip.mshrs = config.mshrs
        chip.deliver_on = chip.err_id = chip.err_idx = 0
        arrays = self._kernel._arrays
        for name, start in self._starts.items():
            arrays[name][...] = start
        # Per-terminal injection RNG seeds, drawn in the order of
        # Network._build_nics so o1turn route choices match bit-for-bit;
        # with ``lane_seeds`` each lane draws its block from its own seed,
        # as the solo network seeded the same way. A terminal's RNG is
        # built when it first injects, under a routing that uses it.
        if lane_seeds is not None and len(lane_seeds) != self._lanes:
            raise ValueError("lane_seeds must give one seed per lane")
        rngs = [random.Random(s) for s in lane_seeds or (seed,)]
        self._nic_seeds = [rng.getrandbits(32) for rng in rngs
                           for _ in range(self._T // len(rngs))]
        self.nic_rngs: dict[int, random.Random] = {}
        self.p_obj: dict[int, Packet] = {}
        #: Terminal -> its delivery callback (``attach_delivery``).
        self._deliveries: dict = {}
        self.cycle, self._stats = 0, NetworkStats()
        #: Whether ``_stats`` holds what ``counts`` and ``hist`` hold: a
        #: new one reads as their zeros, and no kernel call has run yet.
        self._stats_read = True
        #: Who drew the last run's traffic: the kernel or ``inject``.
        self.traffic_source = "python"
        self.detach()

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
        rest read the field's initial value. A capacity whose ids the
        pool's id array cannot hold is refused by name."""
        np = self._np
        if need <= old:
            return old
        cap = old or need
        while cap < need:
            cap *= 2
        table = dtypes()
        for name, what in _POOL_IDS.items():
            if name in fields:
                fits(name, cap, what)
        for name, init in fields.items():
            new = np.full(cap, init, dtype=table[name])
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
        heads = np.full(size + 1, -1, dtype=self.fb_head.dtype)
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
        view = self._view
        if packet.create_cycle > self._cycle_room:
            fits("p_create", packet.create_cycle, "cycles")
        if self._on_inject is not None:
            rng = self.nic_rngs.get(t)
            if rng is None:
                rng = self.nic_rngs[t] = random.Random(self._nic_seeds[t])
            self._on_inject(packet, rng)
        if packet.size >= len(view.fb_head):
            self._size_classes(packet.size)
        # A packet slot reading its initial in-flight values: the top of
        # the free stack, else the next past the high-water mark (growing
        # the pool re-aims every ``p_*`` view).
        state = view.state
        free = state[self._S_P_FREE]
        if free:
            state[self._S_P_FREE] = free - 1
            pk = view.p_free[free - 1]
        else:
            pk = state[self._S_PACKETS]
            if pk >= self._pcap:
                self._pcap = self._size_pool(_PACKET_FIELDS, self._pcap,
                                             pk + 1)
            state[self._S_PACKETS] = pk + 1
        self.p_obj[pk] = packet
        view.p_held[pk] = 1
        view.p_src[pk] = t
        view.p_dst[pk] = packet.dst
        view.p_pair[pk] = packet.src * self._T_local + packet.dst
        view.p_size[pk] = packet.size
        view.p_choice[pk] = packet.route_choice
        view.p_create[pk] = packet.create_cycle
        view.p_next[pk] = -1
        tail = view.q_tail[t]
        if tail < 0:
            view.q_head[t] = pk
        else:
            view.p_next[tail] = pk
        view.q_tail[t] = pk
        view.q_len[t] += 1
        state[self._S_QUEUED] += 1

    def attach_delivery(self, terminal: int, callback) -> None:
        """Call ``callback(packet, cycle)`` with each ``Packet`` delivered
        at ``terminal`` (``Network.attach_delivery``): in the middle of
        the cycle it ejects in, so a packet the callback injects may
        start in that cycle. ``reset`` detaches every callback."""
        self._deliveries[terminal] = callback
        self._kernel.chip.deliver_on = True

    def step(self) -> None:
        """Advance the whole network by one cycle."""
        self._advance(self.cycle + 1)

    def _advance(self, stop: int, drain: bool = False) -> None:
        """Cycles from ``self.cycle`` until ``stop`` (with ``drain``: or
        until nothing is in flight) in ``kernel.c``'s ``run``, which skips
        what nothing acts in and comes back only for what Python does:
        grow the pools, read a cycle's ``ej_out`` rows, run the delivery
        callbacks halfway through a cycle, hand observers a cycle, have
        the checker raise what the walk found, raise the error a code
        stands for. Cycles are kept in 32 bits: a window that would run
        past the last cycle they hold stops there and is refused."""
        view, probe, started = self._view, self.probe, None
        state = view.state
        end = min(stop, self._cycle_room)
        # Lane 0's warm-up is ``stats.warmup_cycles``, which a caller may
        # set any time before the run.
        view.lane_warmup[0] = self._stats.warmup_cycles
        while True:
            c = self.cycle
            if (probe is not None and c != started and c < end
                    and not (drain and self.quiescent())):
                started = c     # the cycle the call runs first
                probe.on_cycle_start(c, self)
            code = self._call(self._chip, c, end, drain)
            self._stats_read = False
            self.cycle = state[self._S_CYCLE]
            if code == RUN_DONE:
                if end < stop and not (drain and self.quiescent()):
                    fits("p_create", stop, "cycles")
                return
            if code == RUN_GROW:
                self._fcap = self._size_pool(_FLIT_FIELDS, self._fcap,
                                             state[self._S_NEED_FLITS])
                self._pcap = self._size_pool(_PACKET_FIELDS, self._pcap,
                                             state[self._S_NEED_PACKETS])
                continue
            if code == RUN_DELIVER:
                self._deliver(self._after_ejections())
                continue
            if code < 0:
                if code == E_BOUNDS:
                    raise ProtocolError(self._kernel.fault())
                error, message = _KERNEL_ERRORS[code]
                raise error(message.format(
                    D=self._D, RD=self._RD, fcap=self._fcap, pcap=self._pcap))
            if state[self._S_ROWS]:
                self._after_ejections()
            if code == RUN_FOUND:
                walk = self._walk_record()
                self._checker.found(walk["cycle"], *self._finding(walk))
            if probe is not None:
                probe.vec_cycle_end(c, self)

    def _after_ejections(self) -> list:
        """For each row the last cycle left in ``ej_out``: write the
        packet's fields back into its ``Packet`` and drop the core's
        reference to it (the slot and its flit block are free already),
        or count a latency the histogram had no column for, widening
        it. Returns ``(terminal, Packet)`` per packet written back."""
        view, width = self._view, len(_EJECTED_ROW)
        flat = view.ej_out[:view.state[self._S_ROWS] * width].tolist()
        written = []
        for row in range(0, len(flat), width):
            k, *fields, latency, lane, _ = flat[row:row + width]
            pkt = self.p_obj.pop(k, None)
            if pkt is not None:
                (pkt.eject_cycle, pkt.inject_cycle, pkt.hops,
                 pkt.sa_bypass_hops, pkt.buf_bypass_hops) = fields
                written.append((lane * self._T_local + pkt.dst, pkt))
            if latency >= 0:
                if latency >= self.hist.shape[1]:
                    hist = self._np.zeros((self._lanes, 2 * latency),
                                          dtype=self.hist.dtype)
                    hist[:, :self.hist.shape[1]] = self.hist
                    self.hist = hist
                    self._kernel.point("hist", hist)
                self.hist[lane, latency] += 1
        return written

    def _deliver(self, written) -> None:
        """The delivery callbacks of the packets ``written`` back halfway
        through a cycle, terminals ascending (the order the scalar core's
        NICs eject in), before the cycle goes on."""
        callbacks = self._deliveries
        for t, pkt in sorted(written, key=itemgetter(0)):
            callback = callbacks.get(t)
            if callback is not None:
                callback(pkt, pkt.eject_cycle)

    def events(self) -> dict:
        """The events of the cycle the last kernel call ran, which it
        records while a probe is bound, as index arrays by kind (global
        ids, lane-major on a batch): ``buffer_writes`` (input VCs
        written), ``traversals`` (one ``(via, popped, ivcs)`` per way
        across the crossbar, in the kernel's order: ``sa`` and ``pc``
        pop the flit they move, ``buf`` bypasses the buffer; no input VC
        twice in one), ``starts`` (terminals whose packet left its
        source queue) and ``ejects`` (terminals that reassembled one).
        Views of the kernel's buffers: valid until its next call."""
        k, nip = self._kernel, self._NIP
        n = dict(zip(self._event_names, k.n[:len(self._event_names)].tolist()))
        return {"buffer_writes": k.ev_bw[:n["bw"]],
                "traversals": [(via, popped, k.ev_trav[at:at + n[via]])
                               for (via, popped), at in zip(
                                   _KERNEL_VIAS, range(0, 3 * nip, nip))],
                "starts": k.ev_inj[:n["inj"]], "ejects": k.ev_ej[:n["ej"]]}

    def fast_forward(self, bound: int, *traffic_next: int | None) -> None:
        """Skip to ``next_act`` of the cycle just run, as ``kernel.c``'s
        ``run`` would, capped at ``bound`` and each ``traffic_next``: for
        a loop that steps (trace replay, ``_drive``'s ticked sources). A
        no-op while anything is buffered, queued or being sent."""
        if self._busy():
            return
        state, target = self._view.state, bound
        for event in (state[self._S_NEXT_ACT], *traffic_next):
            if event is not None and 0 <= event < target:
                target = event
        if target > self.cycle:
            fits("p_create", target, "cycles")
            state[self._S_SKIPPED] += target - self.cycle
            self.cycle = target

    def run(self, cycles: int, traffic=None) -> None:
        """Run for ``cycles`` cycles, ticking ``traffic`` once per cycle."""
        self._drive([traffic], [self.cycle + cycles])

    def _drive(self, traffics, ends) -> None:
        """The traffic loop: lane ``i`` is offered ``traffics[i]`` every
        cycle before ``ends[i]``. A source that hands over its stream
        (``SyntheticTraffic.export_stream``) is drawn by the kernel and
        takes it back on the way out — unless the routing hooks injection
        (O1TURN's draw, ``weighted``'s class) and needs the ``Packet``;
        any other is ticked into ``inject``. A window of the first kind
        is one kernel call; a ticked source is ticked in every cycle the
        kernel runs, one call each, and on an idle chip asked where to
        skip to beside ``next_act``."""
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
        try:
            while self.cycle < end_all:
                c = self.cycle
                for end, tick, _ in ticked:
                    if c < end:
                        tick(c)
                self._advance(c + 1 if ticked else end_all)
                c = self.cycle
                if ticked and not self._busy():
                    # Only an idle chip can skip: ask the sources then.
                    self.fast_forward(end_all, *[
                        ask(c) for end, _, ask in ticked if c < end])
        finally:
            for lane, traffic in bound:
                src = dict(zip(self._src_names, self.src[lane].tolist()))
                traffic.restore_stream(
                    self.src_mt[lane].tolist(), src["drawn_until"],
                    self.src_row[lane, :src["pending"]].tolist(),
                    src["generated"])
                self.src[lane] = 0   # ``end``: the window is closed

    def drain(self, max_cycles: int = 1_000_000) -> None:
        """Run without new traffic until every packet is delivered."""
        self._advance(self.cycle + max_cycles, drain=True)
        if not self.quiescent():
            raise RuntimeError(
                f"network failed to drain within {max_cycles} cycles "
                f"({self.in_flight_packets()} packets left)")

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
        waits in a calendar can be skipped to)."""
        state = self._view.state
        return bool(state[self._S_BUFFERED] or state[self._S_QUEUED]
                    or state[self._S_SENDING])

    def in_flight_packets(self) -> int:
        state = self._view.state
        return state[self._S_QUEUED] + state[self._S_STARTED]

    def quiescent(self) -> bool:
        return not self.in_flight_packets()

    def _read_counts(self, stats: NetworkStats, lane: int) -> NetworkStats:
        """Copy one lane's rows of ``counts`` and ``hist`` into ``stats``."""
        row = self.counts[lane].tolist()
        names = self._stat_names
        for name, value in zip(names, row):
            setattr(stats, name, value)
        stats.pc_terminations = Counter(
            {reason: n for reason, n in zip(self._terminations,
                                            row[len(names):]) if n})
        hist = self.hist[lane]
        latencies = hist.nonzero()[0]
        stats.latency_histogram = dict(zip(latencies.tolist(),
                                           hist[latencies].tolist()))
        return stats

    @property
    def stats(self) -> NetworkStats:
        """The counters of lane 0 — on a solo network, the run's —
        as of this read. It is the same object every time (set
        ``warmup_cycles`` on it before a run), refreshed from ``counts``
        and ``hist`` when a kernel call has run since the last read."""
        if not self._stats_read:
            self._read_counts(self._stats, 0)
            self._stats_read = True
        return self._stats

    def lane_stats(self, lane: int) -> NetworkStats:
        """Extract one lane's counters as a solo-identical NetworkStats."""
        stats = NetworkStats(warmup_cycles=int(self.lane_warmup[lane]))
        return self._read_counts(stats, lane)

    def bind_probe(self, probe) -> None:
        """Attach a probe that reads each cycle's ``events`` in its
        ``vec_cycle_end`` (``vector_hooks``); ``reset`` detaches it.

        Probes that need the scalar per-event stream (``FlitTracer``,
        the scalar monitors) are refused loudly, by name, also inside a
        ``CompositeProbe``: replaying per-flit events from array batches
        would serialize the core.
        """
        if not getattr(probe, "vector_hooks", False):
            names = [type(p).__name__
                     for p in getattr(probe, "probes", (probe,))
                     if not getattr(p, "vector_hooks", False)]
            raise BackendUnsupportedError(
                f"the vectorized backend cannot drive "
                f"{', '.join(names)}: per-flit event instrumentation "
                f"(e.g. Chrome tracing) needs the scalar core (topology "
                f"{self.topology.name!r}) — use --backend scalar, or a "
                f"vector-aware probe such as TimeSeriesProbe")
        probe.bind(self)
        self.probe = probe
        self._kernel.chip.events_on = True

    def detach(self) -> None:
        """Unbind the probe, the invariant checker and the profiler, as
        ``reset`` does: the kernel records no event, walks nothing and
        reads no clock."""
        # Observability: an optional probe reads each cycle's events
        # after it (the kernel records them only while one is bound), an
        # optional invariant checker raises what the kernel's walk finds.
        self.probe = self._checker = None
        chip = self._kernel.chip
        chip.events_on = chip.check_stride = chip.profile_on = 0

    def attach_checker(self, checker) -> None:
        """Attach the invariant checker (``--check``): from here on the
        kernel walks the chip (``check_chip``) at the bottom of every
        ``checker.stride``-th cycle it steps, within the same call, and
        ``checker.found`` raises a finding. The buffers' writes - reads
        count from their occupancy now."""
        self._buf_shadow[...] = self.buf_len
        self._kernel.walk[...] = 0
        checker.bind(self)
        self._checker = checker
        self._kernel.chip.check_stride = checker.stride

    def enable_profile(self) -> None:
        """Switch on the per-phase wall-time profiler (see ``profile``)."""
        chip = self._kernel.chip
        if not chip.profile_on:
            chip.profile_on = True
            self._state[[self._S_STEPPED, self._S_SKIPPED]] = 0

    def profile(self) -> dict | None:
        """JSON-ready per-phase profile since ``enable_profile``.

        The kernel reads the clock between its stages: ``bw`` is
        arrival processing (buffer writes and bypass attempts),
        ``va_sa`` the router lists, VC allocation, SA requests and
        switch allocation (with the ST of granted flits), ``st_credit``
        the calendars' due slots and circuit-reuse traversals, ``pc``
        the candidate scan and circuit maintenance, ``inject`` the NIC
        start + send. What Python does around the call is in none of
        them. ``stepped_cycles`` and ``ff_cycles`` are the cycles the
        kernel ran and skipped (zero wall time).
        """
        if not self._kernel.chip.profile_on:
            return None
        phases = {name: ns / 1e9 for name, ns in zip(
            self._phase_names, self._prof_ns.tolist())}
        total = sum(phases.values())
        return {
            "phases": {k: round(v, 6) for k, v in phases.items()},
            "fractions": {k: round(v / total, 4) if total else 0.0
                          for k, v in phases.items()},
            "total_seconds": round(total, 6),
            "stepped_cycles": int(self._state[self._S_STEPPED]),
            "ff_cycles": int(self._state[self._S_SKIPPED]),
        }

    def check_invariants(self) -> None:
        """The end-of-run check: ``kernel.c``'s walk of the chip, a
        drained one (``quiescent``, no ``Packet`` held) also held to
        holding nothing. A finding raises the strict checker's
        ``InvariantViolation``, naming rule, lane, router, port and VC."""
        found = self._walk(drained=self.quiescent() and not self.p_obj)
        if found is not None:
            from .obs import VectorInvariantChecker  # only a finding needs it
            checker = VectorInvariantChecker(strict=True)
            checker.bind(self)
            checker.found(self.cycle, *found)

    def _walk(self, shadow: bool = False, drained: bool = False):
        """What ``kernel.c``'s walk finds on this chip now: ``None``, or
        its ``(check, index, expected, actual)``. ``shadow``: hold the
        buffers to the writes - reads counted since a checker attached;
        ``drained``: the chip must hold nothing."""
        code = self._check_call(self._chip, shadow, drained)
        if code == E_BOUNDS:
            raise ProtocolError(self._kernel.fault())
        return self._finding(self._walk_record()) if code else None

    def _walk_record(self) -> dict:
        """The walk's record (``CHIP_WALK``) by name."""
        return dict(zip(self._walk_names, self._kernel.walk.tolist()))

    def _finding(self, walk: dict) -> tuple:
        """``(check, index, expected, actual)`` of the walk's last finding."""
        return (self._checks[walk["check"]], walk["index"], walk["expected"],
                walk["actual"])
