"""The array core's invariant checker: what ``kernel.c``'s walk finds,
raised by name.

The array core states its invariants once, as one walk in ``kernel.c``
(``check_chip``): flit conservation, credit conservation, pseudo-circuit
legality, the pools' life cycle and the kernel's summaries, each checked
over the whole chip. With a checker attached (``--check``) the kernel
walks the live chip at the bottom of every ``stride``-th cycle it steps,
inside the call that runs it; ``finish`` walks it once more, and
``VectorNetwork.check_invariants`` walks every chip at the end of a run,
a drained one also held to holding nothing. A finding is one row of
``kernel.c``'s ``CHIP_CHECKS`` with an index and two values;
:class:`VectorInvariantChecker` raises it as the structured
:class:`~repro.core.violation.InvariantViolation` the scalar monitors
raise, its rule, message and coordinates (``_FINDINGS``) — with the lane
on a batched network. ``tests/network/sweep_oracle.py`` states every rule
again as numpy reductions over the same arrays; the tests hold the walk
to it.

This module loads only for a checked run or a finding.
"""

from __future__ import annotations

from ...monitor.base import Monitor


#: Each finding of ``kernel.c``'s walk but the summaries (``CHIP_CHECKS``):
#: the rule and message of the violation, which of the values expected
#: and found it states (``e``, ``a``), and the ``_loc_*`` method that
#: places its index, if any. A ``drained`` one says a chip the core
#: counts as drained still holds something.
_FINDINGS = {
    "flit_twice_ivc": ("conservation", "flit is held in two places at once",
                       "ea", "_loc_ivc"),
    "flit_twice_cred": ("conservation", "flit is held in two places at "
                        "once", "ea", "_loc_cred"),
    "occupancy_shadow": ("conservation", "VC occupancy diverged from shadow "
                         "writes - reads", "ea", "_loc_ivc"),
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
    "flit_outside_ivc": ("pool_reference", "flit id in use lies outside "
                         "every live block", "a", "_loc_ivc"),
    "flit_outside_cred": ("pool_reference", "flit id in use lies outside "
                          "every live block", "a", "_loc_cred"),
    "packet_named_free": ("pool_reference", "packet slot in use is free or "
                          "past the high-water mark", "a", "_loc_slot"),
    "packet_leaked": ("pool_accounting", "packet slot is neither in use nor "
                      "free: live + free slots fall short of the high-water "
                      "mark", "a", "_loc_slot"),
    "packet_held_free": ("pool_accounting", "p_obj holds a Packet for a "
                         "slot that is not live", "a", "_loc_slot"),
    "block_leaked": ("pool_block", "live flit block does not belong to a "
                     "started packet of its size", "ea", "_loc_block"),
    "packet_blocks": ("pool_accounting", "started packet does not own "
                      "exactly one live flit block", "ea", "_loc_slot"),
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
}


class VectorInvariantChecker(Monitor):
    """The array core's invariants, walked by ``kernel.c`` (``check_chip``).

    Five invariant families — the scalar monitor suite's three, plus the
    array core's own storage and summaries:

    * **conservation** — a flit in the network sits in exactly one
      buffer slot or calendar entry, every VC's occupancy equals the
      writes − reads of its buffer since the checker attached, the
      per-router and whole-chip occupancy caches agree with ``buf_len``;
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
      compiled cycle iterates instead of the state
      (``kernel.summaries``) equals that state's (``summary_<name>``
      names which did not).

    Attached (``VectorNetwork.attach_checker``), the kernel walks the
    chip at the bottom of every ``stride``-th stepped cycle
    (``--check-stride``) and :meth:`finish` walks it once more.
    Violations carry lane-local (router, port, vc) coordinates plus the
    ``lane`` index on batched networks.
    """

    name = "vector_invariants"

    def __init__(self, strict: bool = True, stride: int = 1):
        super().__init__(strict=strict)
        if stride < 1:
            raise ValueError("check stride must be >= 1 cycle")
        self.stride = stride
        self._finished = 0

    def bind(self, network) -> None:
        super().bind(network)
        self._lay = network._lay

    @property
    def sweeps(self) -> int:
        """The walks of the chip made for this checker: the kernel's
        since it attached, and :meth:`finish`'s."""
        return self._network._walk_record()["walks"] + self._finished

    def finish(self, network) -> None:
        self._finished += 1
        found = network._walk(shadow=True)
        if found is not None:
            self.found(network.cycle, *found)

    def snapshot(self) -> dict:
        # The pools never shrink, so their high-water marks are the most
        # packets and flits that were ever in flight at once.
        net = self._network
        return {"violations": len(self.violations),
                "sweeps": self.sweeps, "stride": self.stride,
                "pool_high_water": {"packets": net._npackets,
                                    "flits": net._nflits}}

    def found(self, cycle: int, check: str, index: int, expected: int,
              actual: int) -> None:
        """Raise (record, if not strict) what the walk found in
        ``cycle``: a name of ``CHIP_CHECKS`` but ``ok``, its index,
        expected and found value."""
        if check.startswith("summary_"):
            self._summary_found(cycle, check[len("summary_"):], index,
                                expected, actual)
        else:
            self._found(check, cycle, index, expected, actual)

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
