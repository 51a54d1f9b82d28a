"""Compiled routing tables.

At ``Network`` construction any deterministic (``tabulable``) routing
algorithm is compiled into flat per-router lookup tables, replacing the
per-flit ``route()`` call chain (topology ``isinstance`` checks, ``coords``
tuple math, string compares on order/dimension) with a single tuple index:

    entry = tables[router][route_choice][dst_terminal]
    out_port, drop, vc_lo, vc_hi = entry

The VC range is folded into the entry so the router's VA stage and the
buffer-bypass head path get routing *and* the packet's deadlock-class VC
window from one lookup. ``vc_ranges[route_choice]`` carries the same window
for call sites that already know the route (VA retries, NIC injection).

Compilation calls the algorithm's pure ``route_entry``/``vc_range_for_choice``
— the exact code the dynamic path runs — so the table cannot diverge from
``route()`` (locked in by ``tests/routing/test_compiled.py``).

A table is a pure function of (routing instance, ``num_vcs``), so
``compile_routing`` builds it once per instance and every network built
on that instance afterwards shares it read-only: rows are tuples, equal
entries are one interned object, and the ``as_arrays()`` export is
write-protected. The memo lives on the routing instance and dies with it.
"""

from __future__ import annotations

from ..topology.base import Topology
from .base import RoutingAlgorithm


class CompiledRouting:
    """Flat routing tables for one (algorithm, topology, num_vcs) triple."""

    __slots__ = ("tables", "vc_ranges", "num_route_choices", "_arrays")

    def __init__(self, tables, vc_ranges):
        #: tables[router][route_choice][dst] -> (out_port, drop, lo, hi)
        self.tables = tables
        #: vc_ranges[route_choice] -> (lo, hi)
        self.vc_ranges = vc_ranges
        self.num_route_choices = len(vc_ranges)
        self._arrays = None

    def router_table(self, router: int):
        """Per-choice destination tables for one router."""
        return self.tables[router]

    def as_arrays(self):
        """Export the tables as numpy gather arrays for the vectorized core.

        Returns ``(out, drop)`` where both are int64 arrays of shape
        ``[num_routers, num_route_choices, num_terminals]``; the per-choice
        VC windows stay in ``vc_ranges`` (they do not vary by destination).
        Requires numpy; cached after the first call.
        """
        if self._arrays is None:
            from ..network.backend import require_numpy
            np = require_numpy()
            r = len(self.tables)
            c = self.num_route_choices
            t = len(self.tables[0][0]) if r else 0
            out = np.empty((r, c, t), dtype=np.int64)
            drop = np.empty((r, c, t), dtype=np.int64)
            for router, per_choice in enumerate(self.tables):
                for choice, entries in enumerate(per_choice):
                    out[router, choice] = [e[0] for e in entries]
                    drop[router, choice] = [e[1] for e in entries]
            out.setflags(write=False)  # shared by every network on the chip
            drop.setflags(write=False)
            self._arrays = (out, drop)
        return self._arrays


def compile_routing(routing: RoutingAlgorithm, topology: Topology,
                    num_vcs: int) -> CompiledRouting | None:
    """Lookup tables for ``routing``; None when not tabulable.

    Built on the first call per (routing instance, ``num_vcs``) and
    shared by every later one. ``topology`` must be the instance the
    routing was constructed on.
    """
    if topology is not routing.topology:
        def shape(topo):
            return (f"{topo.name!r} ({topo.num_routers} routers, "
                    f"{topo.num_terminals} terminals)")
        raise ValueError(
            f"routing {routing.name!r} was built for topology "
            f"{shape(routing.topology)} but is being compiled against "
            f"another instance, {shape(topology)}: the tables would be "
            f"sized by one and routed by the other")
    if not routing.tabulable:
        return None
    compiled = routing.compiled.get(num_vcs)
    if compiled is not None:
        return compiled
    choices = range(routing.num_route_choices)
    vc_ranges = tuple(routing.vc_range_for_choice(c, num_vcs)
                      for c in choices)
    terminals = range(topology.num_terminals)
    # A table holds few distinct entries (ports x VC windows): keep one
    # tuple of each, so a row costs pointers.
    entries: dict[tuple, tuple] = {}

    def entry(router, dst, choice):
        made = (*routing.route_entry(router, dst, choice),
                *vc_ranges[choice])
        return entries.setdefault(made, made)

    tables = tuple(
        tuple(
            tuple(entry(router, dst, choice) for dst in terminals)
            for choice in choices)
        for router in range(topology.num_routers))
    compiled = routing.compiled[num_vcs] = CompiledRouting(tables, vc_ranges)
    return compiled
