"""Array-native invariant checking for the vectorized backends.

The array cores hand observers batched hooks (the ``vec_*`` half of the
vocabulary in ``instrument/probe.py``) instead of the scalar per-flit
stream. Two consumers implement them as numpy reductions:
``instrument.series.TimeSeriesProbe`` (the windowed time series, which
serves both cores) and, here, :class:`VectorInvariantChecker` — flit
conservation, credit conservation, pseudo-circuit legality, the pools'
life cycle and the kernel's summaries as whole-array assertions, swept
every cycle (or every ``stride`` cycles); failures raise the same
structured :class:`~repro.core.violation.InvariantViolation` as the
scalar monitors, with batched-lane attribution. ``kernel.summaries`` is
the one Python statement of what each summary ``kernel.c`` keeps means;
the checker compares the kernel's summaries with it.
A drained chip's end-of-run check is ``kernel.c``'s ``check_drained``
instead of a sweep; ``VectorInvariantChecker.drained`` raises what it
finds as the sweep raises the same state (one table, ``_FINDINGS``).

No module-level numpy import: numpy is an optional dependency and is
taken from the bound network (``network._np``) at bind time.
"""

from __future__ import annotations

from ...monitor.base import Monitor
from .kernel import summaries


#: Each finding of ``kernel.c``'s ``check_drained`` but the summaries
#: (``CHIP_CHECKS``): the rule and message of the violation, which of the
#: values expected and found it states (``e``, ``a``), and the ``_loc_*``
#: method that places its index, if any. All but the ``drained`` ones
#: are the sweep's own rules, which raise from these rows too; a
#: ``drained`` one says a chip the core counts as drained still holds
#: something.
_FINDINGS = {
    "held_count": ("drained", "whole-chip count of packets queued, being "
                   "sent or started is not zero", "ea", None),
    "held_buffer": ("drained", "flit left in an input buffer", "ea",
                    "_loc_ivc"),
    "held_arrival": ("drained", "flit left in the arrival ring", "a",
                     "_loc_ip"),
    "held_ejection": ("drained", "flit left in the ejection ring", "a",
                      "_loc_term"),
    "held_send": ("drained", "NIC transmission left unsent", "a",
                  "_loc_cred"),
    "held_queue": ("drained", "packet left in a source queue", "a",
                   "_loc_term"),
    "busy_input_vc": ("drained", "input VC is not idle", "ea", "_loc_ivc"),
    "busy_output_vc": ("drained", "output VC is still allocated", "ea",
                       "_loc_cred"),
    "occupancy_sync": ("occupancy_sync", "per-router buffered-flit cache "
                       "out of sync with buf_len", "ea", "_loc_router"),
    "occupancy_total": ("occupancy_total", "whole-chip buffered-flit count "
                        "out of sync with buf_len", "ea", None),
    "credit_range": ("credit_range", "credit counter outside [0, limit]",
                     "ea", "_loc_cred"),
    "credit_count": ("credit_count", "credit counter diverged from limit - "
                     "buffered - in-flight - returning", "ea", "_loc_cred"),
    "pc_output_shared": ("pc_output_shared", "two valid pseudo-circuits "
                         "share one output port", "", "_loc_op"),
    "pc_holder_sync": ("pc_holder_sync", "output holder register out of "
                       "sync with circuit registers", "ea", "_loc_op"),
    "packet_double_free": ("pool_double_free", "packet slot is on the free "
                           "list twice", "a", "_loc_slot"),
    "block_tiling": ("pool_block", "head..tail runs do not tile the flit "
                     "pool up to its high-water mark", "e", None),
    "block_free_list": ("pool_block", "free list holds a block that is not "
                        "a whole block of its size", "ea", None),
    "block_double_free": ("pool_double_free", "flit block is on the free "
                          "lists twice", "a", None),
    "packet_leaked": ("pool_accounting", "packet slot is neither in use nor "
                      "free: live + free slots fall short of the high-water "
                      "mark", "a", "_loc_slot"),
    "block_leaked": ("pool_block", "live flit block does not belong to a "
                     "started packet of its size", "ea", "_loc_block"),
}


class VectorInvariantChecker(Monitor):
    """Whole-array invariant sweeps over the vectorized core's state.

    Five invariant families — the scalar monitor suite's three, plus the
    array core's own storage and summaries:

    * **conservation** — a flit in the network sits in exactly one
      buffer slot or calendar entry, every VC's occupancy equals its
      shadow writes − reads count, the per-router and whole-chip
      occupancy caches agree with ``buf_len``;
    * **credit** — every credit counter equals its limit minus the flits
      buffered downstream, in flight toward it, and credit returns still
      in the pipeline; counters stay within ``[0, limit]``;
    * **pseudo-circuit** — valid circuits have pairwise-distinct
      outputs and the output holder registers mirror them exactly;
    * **pool** — a packet slot and its flit block live exactly as long
      as the packet: every flit id a buffer, calendar ring or NIC send
      slot holds sits in a live block, no slot is on a free stack
      twice, and the live and free slots together make up the
      high-water mark;
    * **summary** — every occupancy, circuit and credit summary the
      compiled cycle iterates instead of the state (``summaries``)
      equals that state's (``summary_<name>`` names which did not).

    A sweep runs at the bottom of every ``stride``-th stepped cycle
    (``--check-stride``) and once more at :meth:`finish`. Violations
    carry lane-local (router, port, vc) coordinates plus the ``lane``
    index on batched networks.
    """

    name = "vector_invariants"
    vector_hooks = True

    def __init__(self, strict: bool = True, stride: int = 1):
        super().__init__(strict=strict)
        if stride < 1:
            raise ValueError("check stride must be >= 1 cycle")
        self.stride = stride
        self.sweeps = 0
        self._tick = 0

    def bind(self, network) -> None:
        super().bind(network)
        np = network._np
        self._np = np
        lay = network._lay
        self._lay = lay
        # Shadow flit-conservation counters; seeded from the live
        # occupancy so attaching mid-run stays sound.
        self._w = network.buf_len.copy()
        self._r = np.zeros(lay.NIVC, dtype=np.int64)
        # ivc -> the upstream credit index its buffered flits consumed
        # (-1 for unwired ports, which can never hold flits).
        ramp = np.arange(lay.NIVC, dtype=np.int64)
        up = lay.ip_upbase[ramp // lay.V]
        self._ivc_ci = np.where(up >= 0, up + ramp % lay.V, -1)

    # -- shadow accumulation --------------------------------------------------

    def vec_buffer_writes(self, cycle, aivc):
        self._np.add.at(self._w, aivc, 1)

    def vec_traversals(self, cycle, via, popped, ivcs):
        if popped:
            self._r[ivcs] += 1  # ivcs duplicate-free per traversal batch

    def vec_cycle_end(self, cycle, network):
        self._tick += 1
        if self._tick >= self.stride:
            self._tick = 0
            self.sweep(cycle)

    def finish(self, network) -> None:
        self.sweep(network.cycle)

    def snapshot(self) -> dict:
        # The pools never shrink, so their high-water marks are the most
        # packets and flits that were ever in flight at once.
        net = self._network
        return {"violations": len(self.violations),
                "sweeps": self.sweeps, "stride": self.stride,
                "pool_high_water": {"packets": net._npackets,
                                    "flits": net._nflits}}

    # -- localization ---------------------------------------------------------

    def _lane(self, lane: int):
        return lane if self._network._lanes > 1 else None

    def _loc_ivc(self, idx: int) -> dict:
        net = self._network
        lane, local = divmod(int(idx), self._lay.NIVC // net._lanes)
        return {"lane": self._lane(lane),
                "router": local // (net._Pi * net._V),
                "port": (local // net._V) % net._Pi,
                "vc": local % net._V}

    def _loc_op(self, opid: int) -> dict:
        net = self._network
        lane, local = divmod(int(opid), self._lay.NOP // net._lanes)
        return {"lane": self._lane(lane), "router": local // net._Po,
                "port": local % net._Po}

    def _loc_cred(self, ci: int) -> dict:
        net, lay = self._network, self._lay
        ci = int(ci)
        if ci < lay.NOVC:
            loc = self._loc_op(ci // net._V)
            loc["vc"] = ci % net._V
            return loc
        # NIC injection side: locate via the terminal's injection port.
        loc = self._loc_term((ci - lay.NOVC) // net._V)
        loc["vc"] = (ci - lay.NOVC) % net._V
        return loc

    def _loc_ip(self, ip: int) -> dict:
        net = self._network
        lane, local = divmod(int(ip), self._lay.NIP // net._lanes)
        return {"lane": self._lane(lane), "router": local // net._Pi,
                "port": local % net._Pi}

    def _loc_term(self, t: int) -> dict:
        # A terminal is where its injection port is.
        return self._loc_ip(self._lay.inj_ipid[int(t)])

    def _loc_router(self, r: int) -> dict:
        lane, router = divmod(int(r), self._lay.R // self._network._lanes)
        return {"lane": self._lane(lane), "router": router}

    def _loc_slot(self, k: int) -> dict:
        """A packet slot is where its source terminal is."""
        return self._loc_term(self._network.p_src[int(k)])

    def _loc_block(self, fid0: int) -> dict:
        """A flit block is where the packet it names is."""
        return self._loc_slot(self._network.f_pkt[int(fid0)])

    def _found(self, check: str, cycle: int, index=None, expected=None,
               actual=None) -> None:
        """The violation of finding ``check`` (``_FINDINGS``) at
        ``index``, stating what the finding states of ``expected`` and
        ``actual``."""
        rule, message, states, locate = _FINDINGS[check]
        self.violation(rule, message, cycle=cycle,
                       expected=expected if "e" in states else None,
                       actual=actual if "a" in states else None,
                       **(getattr(self, locate)(index) if locate else {}))

    # -- the sweep ------------------------------------------------------------

    def sweep(self, cycle: int) -> None:
        """Run every whole-array check against the live state."""
        self.sweeps += 1
        refs = self._flit_refs()
        self._check_conservation(cycle, refs)
        self._check_credit(cycle)
        if self._network._pc_enabled:
            self._check_pc(cycle)
        self._check_pools(cycle, refs)
        self._check_summaries(cycle)

    @staticmethod
    def _located(refs, i: int):
        """``(flit id, where it sits)`` of entry ``i`` of the
        concatenated ``refs``."""
        for held, locate in refs:
            if i < len(held):
                return int(held[i]), locate(i)
            i -= len(held)
        raise IndexError(i)

    def _check_conservation(self, cycle: int, refs) -> None:
        np = self._np
        net = self._network
        # A flit in the network is in one place: one buffer slot or one
        # ring entry (the NICs' unsent ranges, last in ``refs``, name
        # their ends twice when one flit is left).
        held = np.concatenate([fids for fids, _ in refs[:-1]])
        order = held.argsort(kind="stable")
        twice = (held[order][1:] == held[order][:-1]).nonzero()[0]
        if len(twice):
            fid, where = self._located(refs, int(order[twice[0] + 1]))
            self.violation("conservation",
                           "flit is held in two places at once",
                           cycle=cycle, expected=1, actual=fid, **where)
        expect = self._w - self._r
        if not np.array_equal(net.buf_len, expect):
            i = int((net.buf_len != expect).nonzero()[0][0])
            self.violation(
                "conservation",
                "VC occupancy diverged from shadow writes - reads",
                cycle=cycle, expected=int(expect[i]),
                actual=int(net.buf_len[i]), **self._loc_ivc(i))
        per_router = net.buf_len.reshape(self._lay.R, -1).sum(axis=1)
        if not np.array_equal(per_router, net._r_buffered):
            r = int((per_router != net._r_buffered).nonzero()[0][0])
            self._found("occupancy_sync", cycle, r, int(per_router[r]),
                        int(net._r_buffered[r]))
        total = int(per_router.sum())
        if total != net._buffered:
            self._found("occupancy_total", cycle, None, total,
                        int(net._buffered))

    def _check_credit(self, cycle: int) -> None:
        np = self._np
        net, lay = self._network, self._lay
        limit = lay.cred_init
        if bool(((net.cred < 0) | (net.cred > limit)).any()):
            bad = ((net.cred < 0) | (net.cred > limit)).nonzero()[0]
            ci = int(bad[0])
            self._found("credit_range", cycle, ci, int(limit[ci]),
                        int(net.cred[ci]))
        expect = limit.copy()
        occ = (net.buf_len > 0).nonzero()[0]
        if len(occ):
            ci = self._ivc_ci[occ]
            wired = ci >= 0
            np.subtract.at(expect, ci[wired], net.buf_len[occ[wired]])
        dests, fids = net._pending("arrivals")
        np.subtract.at(expect, lay.ip_upbase[dests] + net.f_vc[fids], 1)
        terms, fids = net._pending("ejections")
        np.subtract.at(expect, lay.ej_opid[terms] * net._V + net.f_vc[fids],
                       1)
        np.subtract.at(expect, net._pending("credits")[0], 1)
        if not np.array_equal(net.cred, expect):
            ci = int((net.cred != expect).nonzero()[0][0])
            self._found("credit_count", cycle, ci, int(expect[ci]),
                        int(net.cred[ci]))

    def _check_pc(self, cycle: int) -> None:
        np = self._np
        net = self._network
        valid = net.pc_valid.nonzero()[0]
        outs = (valid // net._Pi) * net._Po + net.pc_out_port[valid]
        if len(outs) > 1:
            so = np.sort(outs)
            dup = (so[1:] == so[:-1]).nonzero()[0]
            if len(dup):
                self._found("pc_output_shared", cycle, int(so[int(dup[0])]))
        expected = np.full(self._lay.NOP, -1, dtype=np.int64)
        expected[outs] = valid % net._Pi
        if not np.array_equal(expected, net.op_holder):
            opid = int((expected != net.op_holder).nonzero()[0][0])
            self._found("pc_holder_sync", cycle, opid, int(expected[opid]),
                        int(net.op_holder[opid]))

    def _check_summaries(self, cycle: int) -> None:
        net, lay = self._network, self._lay
        for name, expected in summaries(
                self._np, lambda state: getattr(net, state), lay.R, net._Pi,
                net._Po, net._V).items():
            actual = getattr(net, name)
            wrong = (actual != expected).nonzero()[0]
            if len(wrong):
                i = int(wrong[0])
                self._summary_found(cycle, name, i, int(expected[i]),
                                    int(actual[i]))

    def _summary_found(self, cycle: int, name: str, i: int, want: int,
                       have: int) -> None:
        """The violation of element ``i`` of summary ``name``."""
        net = self._network
        # Of a mask, the lowest bit that differs: a VC of port ``i``
        # (ip_*), a router of the chip (r_map), else a port (or output)
        # of router ``i``.
        bit = ((want ^ have) & -(want ^ have)).bit_length() - 1
        if name == "op_credsum":
            where = self._loc_op(i)
        elif name.startswith("ip_"):
            where = self._loc_ivc(i * net._V + bit)
        elif name == "r_map":
            where = dict(self._loc_router(i * 64 + bit), port=None)
        else:
            where = dict(self._loc_router(i), port=bit)
        self.violation(
            "summary_" + name,
            f"summary {name} diverged from the state it summarises",
            cycle=cycle, expected=want, actual=have, **where)

    def drained(self, cycle: int, check: str, index: int, expected: int,
                actual: int) -> None:
        """Raise what ``kernel.c``'s ``check_drained`` found (a name of
        ``CHIP_CHECKS`` but ``ok``, its index, expected and found value)
        as this sweep names it. When the finding is that the chip still
        holds something, the sweep runs first: it names what it finds in
        a chip that is not drained."""
        if check.startswith("summary_"):
            self._summary_found(cycle, check[len("summary_"):], index,
                                expected, actual)
            return
        if _FINDINGS[check][0] == "drained":
            self.sweep(cycle)
        self._found(check, cycle, index, expected, actual)

    # -- pool life cycle ------------------------------------------------------

    def _flit_refs(self):
        """Every place the core holds the id of a flit still in the
        network — input buffers, the arrival and ejection rings, the
        NICs' send slots — as ``(fids, locate)`` pairs: ``locate(i)``
        names where ``fids[i]`` sits. A NIC send slot gives the next and
        the last flit of the range it has left to send."""
        np = self._np
        net, lay = self._network, self._lay
        V, D = net._V, net._D
        occ = net.buf_len.nonzero()[0]
        lens = net.buf_len[occ, None]
        k = np.arange(D)
        ivcs = occ.repeat(lens[:, 0])
        refs = [(net.buf_fid[ivcs,
                             ((net.buf_head[occ, None] + k) % D)[k < lens]],
                 lambda i: self._loc_ivc(ivcs[i]))]
        dests, fids = net._pending("arrivals")
        refs.append((fids, lambda i, dests=dests, fids=fids:
                     self._loc_ivc(dests[i] * V + net.f_vc[fids[i]])))
        terms, fids = net._pending("ejections")
        refs.append((fids, lambda i, terms=terms, fids=fids: dict(
            self._loc_op(lay.ej_opid[terms[i]]), vc=int(net.f_vc[fids[i]]))))
        t, v = net.snd_left.nonzero()
        nxt = net.snd_next[t, v]
        refs.append((np.concatenate((nxt, nxt + net.snd_left[t, v] - 1)),
                     lambda i: self._loc_cred(lay.NOVC + t[i % len(t)] * V
                                              + v[i % len(t)])))
        return refs

    def _check_pools(self, cycle: int, refs) -> None:
        np = self._np
        net = self._network
        pcap, fcap = net._pcap, net._fcap
        # Packet slots below the high-water mark are live or free, once.
        hwm = net._npackets
        freed = np.bincount(net._free_packets(), minlength=pcap)
        if freed.max() > 1:
            k = int(freed.argmax())
            self._found("packet_double_free", cycle, k, actual=k)
        live = freed == 0
        live[hwm:] = False
        # Flit blocks are the head..tail runs; with the unused rest of
        # the pool as one more (dead) block they tile it exactly.
        n = net._nflits
        heads = net.f_head[:n].nonzero()[0]
        tails = net.f_tail[:n].nonzero()[0]
        nb = len(heads)
        starts = np.empty(nb + 1, dtype=np.int64)
        starts[:nb] = heads
        starts[nb] = n
        if not (len(tails) == nb and starts[0] == 0
                and np.array_equal(starts[1:], tails + 1)):
            self._found("block_tiling", cycle, expected=n)
            return
        sizes = np.empty(nb + 1, dtype=np.int64)
        sizes[:nb] = starts[1:] - heads
        sizes[nb] = fcap - n
        block_of = np.arange(nb + 1).repeat(sizes)
        sizes[nb] = 0   # no free block may claim the unused rest
        bfreed = np.zeros(nb + 1, dtype=np.int64)
        for size, free in net._free_blocks().items():
            f0 = np.array(free, dtype=np.int64)
            b = block_of[f0]
            bad = ((starts[b] != f0) | (sizes[b] != size)).nonzero()[0]
            if len(bad):
                self._found("block_free_list", cycle, expected=size,
                            actual=int(f0[bad[0]]))
            bfreed += np.bincount(b, minlength=nb + 1)
        if bfreed.max() > 1:
            self._found("block_double_free", cycle,
                        actual=int(starts[bfreed.argmax()]))
        dead = bfreed > 0
        dead[nb] = True
        # Every held flit id sits in a live block; the packets those
        # flits, the NIC send slots and the source queues name are
        # exactly the live slots, and only those still hold a Packet
        # (the ones that came in through ``inject``).
        fids = np.concatenate([held for held, _ in refs])
        bad = dead[block_of[fids]].nonzero()[0]
        if len(bad):
            fid, where = self._located(refs, int(bad[0]))
            self.violation("pool_reference",
                           "flit id in use lies outside every live block",
                           cycle=cycle, actual=fid, **where)
        named = np.zeros(pcap, dtype=bool)
        named[net.f_pkt[fids]] = True
        named[net.snd_pid[net.snd_left > 0]] = True
        if net._num_queued:
            named[net._queued_packets()] = True
        holds = np.zeros(pcap, dtype=bool)
        holds[list(net.p_obj)] = True
        for wrong, rule, message in (
                (named & ~live, "pool_reference",
                 "packet slot in use is free or past the high-water mark"),
                (live & ~named, *_FINDINGS["packet_leaked"][:2]),
                (holds & ~live, "pool_accounting",
                 "p_obj holds a Packet for a slot that is not live")):
            if wrong.any():
                k = int(wrong.argmax())
                self.violation(rule, message, cycle=cycle, actual=k,
                               **self._loc_slot(k))
        # Each live block belongs to one started packet of its size, and
        # each started packet owns one.
        lb = (~dead[:nb]).nonzero()[0]
        pk = net.f_pkt[heads[lb]]
        owned = (live[pk] & (net.p_inject[pk] >= 0)
                 & (net.p_size[pk] == sizes[lb])
                 & (net.f_pkt[tails[lb]] == pk))
        if not owned.all():
            b = lb[int(owned.argmin())]
            self._found("block_leaked", cycle, int(heads[b]), int(sizes[b]),
                        int(heads[b]))
        blocks = np.bincount(pk[owned], minlength=pcap)
        wrong = blocks != (live & (net.p_inject >= 0))
        if wrong.any():
            k = int(wrong.argmax())
            self.violation("pool_accounting",
                           "started packet does not own exactly one live "
                           "flit block",
                           cycle=cycle, expected=1, actual=int(blocks[k]),
                           **self._loc_slot(k))
