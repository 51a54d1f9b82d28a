"""The oracle of the array core's invariant walk: the numpy sweep.

``kernel.c``'s ``check_chip`` is the one statement of the array core's
invariants that runs (``VectorInvariantChecker``, ``--check``). This is
the same set of rules stated a second way, as whole-array numpy
reductions over the same ``Chip`` arrays, fed by each cycle's recorded
events (``VectorNetwork.events``: the shadow writes - reads counts):
what the tests hold the walk to. A seeded fault must be named by both,
as the same first violation (rule, message, cycle and coordinates), and
a clean run by neither.

Attach it as a probe (``net.bind_probe(SweepOracle(...))``): it sweeps at
the bottom of every ``stride``-th stepped cycle, as the kernel walks, and
once more at :meth:`finish`; ``sweep(cycle)`` runs one by hand. Its
violations come from the checker's own table and locators, so a finding
reads the same from either.
"""

import pytest

from repro.core.violation import InvariantViolation
from repro.network.vectorized.kernel import summaries
from repro.network.vectorized.obs import _FINDINGS, VectorInvariantChecker


def same_first(build, drive, stride=1, found=True):
    """Build a chip twice (``build()``), one checked by the walk and one
    by the oracle, both strict at ``stride``, and ``drive(net)`` each:
    both raise the same first violation (rule, message, cycle,
    coordinates, values: ``to_dict``), which is returned. Unless
    ``found``, the outcome may also be the same other error (its type
    and message), or none: a cycle may trip over a seeded fault, or mend
    it, before the next walk."""
    raised = []
    for oracle in (False, True):
        net = build()
        if oracle:
            net.bind_probe(SweepOracle(strict=True, stride=stride))
        else:
            net.attach_checker(VectorInvariantChecker(strict=True,
                                                      stride=stride))
        try:
            drive(net)
        except InvariantViolation as err:
            raised.append(err.to_dict())
        except Exception as err:    # the same from both, or a failure
            if found:
                raise
            raised.append((type(err).__name__, str(err)))
        else:
            raised.append(None)
    walked, swept = raised
    assert walked == swept
    assert isinstance(walked, dict) or not found, "no violation raised"
    return walked


def same_now(net, checker, oracle):
    """The first violation the walk of ``checker`` (``finish``) and one
    sweep of ``oracle``, both bound to ``net``, name on it as it stands:
    the same one, returned."""
    checker.strict = oracle.strict = True
    with pytest.raises(InvariantViolation) as walked:
        checker.finish(net)
    with pytest.raises(InvariantViolation) as swept:
        oracle.sweep(net.cycle)
    assert walked.value.to_dict() == swept.value.to_dict()
    return walked.value


# -- readers of the pools and calendars the sweep walks -----------------------

def free_packets(net):
    """The free packet slots, bottom of the stack first."""
    return net.p_free[:net._state[net._S_P_FREE]]


def free_blocks(net) -> dict:
    """Packet size -> first flits of the free blocks of that size, top of
    the stack first (walked at most one link per flit ever made, so a
    corrupted chain still ends)."""
    links = net.f_link[:net._nflits].tolist()
    blocks = {}
    for size, fid0 in enumerate(net.fb_head.tolist()):
        chain = []
        while fid0 >= 0 and len(chain) <= len(links):
            chain.append(fid0)
            fid0 = links[fid0] if fid0 < len(links) else -1
        if chain:
            blocks[size] = chain
    return blocks


def queued_packets(net) -> list:
    """The packet slots waiting in source queues (at most one link walked
    per slot ever made)."""
    links = net.p_next[:net._npackets].tolist()
    slots = []
    for pk in net.q_head[net.q_len > 0].tolist():
        while 0 <= pk < len(links) and len(slots) <= len(links):
            slots.append(pk)
            pk = links[pk]
    return slots


def pending(net, ring: str) -> tuple:
    """Everything still waiting in one calendar, all slots together: one
    array per column of the ring (``net._rings``)."""
    np = net._np
    row, columns = net._rings[ring]
    room = columns[0].shape[1]
    waiting = (np.arange(room) < net.ring_n[row][:, None])
    return tuple(column[waiting] for column in columns)


class SweepOracle(VectorInvariantChecker):
    """Whole-array invariant sweeps over the vectorized core's state."""

    vector_hooks = True
    #: Sweeps run (the walk's count is the checker's ``sweeps``).
    sweeps = 0

    def __init__(self, strict: bool = True, stride: int = 1):
        super().__init__(strict=strict, stride=stride)
        self._tick = 0

    def bind(self, network) -> None:
        super().bind(network)
        np = network._np
        self._np = np
        lay = network._lay
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

    def vec_cycle_end(self, cycle, network):
        events = network.events()
        self._np.add.at(self._w, events["buffer_writes"], 1)
        for _, popped, ivcs in events["traversals"]:
            if popped:
                self._r[ivcs] += 1  # no input VC twice in one way
        self._tick += 1
        if self._tick >= self.stride:
            self._tick = 0
            self.sweep(cycle)

    def finish(self, network) -> None:
        self.sweep(network.cycle)

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
        dests, fids = pending(net, "arrivals")
        np.subtract.at(expect, lay.ip_upbase[dests] + net.f_vc[fids], 1)
        terms, fids = pending(net, "ejections")
        np.subtract.at(expect, lay.ej_opid[terms] * net._V + net.f_vc[fids],
                       1)
        np.subtract.at(expect, pending(net, "credits")[0], 1)
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
        dests, fids = pending(net, "arrivals")
        refs.append((fids, lambda i, dests=dests, fids=fids:
                     self._loc_ivc(dests[i] * V + net.f_vc[fids[i]])))
        terms, fids = pending(net, "ejections")
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
        freed = np.bincount(free_packets(net), minlength=pcap)
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
        for size, free in free_blocks(net).items():
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
            named[queued_packets(net)] = True
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
