"""Compiled routing tables.

At construction of a network (either core) the routing algorithm is
compiled into two flat lookup tables, so a head flit costs tuple indexes
rather than the algorithm's own computation (topology ``isinstance``
checks, ``coords`` tuple math, string compares on order/dimension):

    out_port, drop = tables[router][route_choice][dst_terminal]
    lo, hi = windows[route_choice][out_port]     # windows[c][-1]: injection

The route table is per router and destination; the window table is the
algorithm's ``vc_window`` rule, one row per route choice and one column
per output port, plus a last column for the injection channel. The
router's VA stage and buffer-bypass head path read both; the NIC reads
the injection column. The array cores read the same two tables as
numpy arrays (``as_arrays``).

Compilation calls the algorithm's pure ``route_entry``/``vc_window`` —
the rules ``route()``/``vc_limits()`` restate for a live packet — so the
tables cannot diverge from them (locked in by
``tests/routing/test_compiled.py``). A rule that refuses the
configuration (too few VCs for the algorithm's classes) raises here, at
construction, on every core.

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

    __slots__ = ("tables", "windows", "num_route_choices", "_arrays")

    def __init__(self, tables, windows):
        #: tables[router][route_choice][dst] -> (out_port, drop)
        self.tables = tables
        #: windows[route_choice][out_port] -> (lo, hi); the last column is
        #: the injection channel (out_port -1).
        self.windows = windows
        self.num_route_choices = len(windows)
        self._arrays = None

    def as_arrays(self):
        """Export the tables as numpy gather arrays for the array cores.

        Returns ``(out, drop, window)``: ``out`` and ``drop`` are arrays
        of shape ``[num_routers, num_route_choices, num_terminals]``,
        ``window`` is ``[num_route_choices, ports + 1, 2]`` (``lo``,
        ``hi``; the last port column is injection); ``out`` and
        ``window`` have the element types of the ``Chip`` arrays they
        become (``route_out``, ``vc_window``). Requires numpy; cached
        after the first call.
        """
        if self._arrays is None:
            from ..network.backend import require_numpy
            from ..network.vectorized.kernel import dtypes
            np = require_numpy()
            r = len(self.tables)
            c = self.num_route_choices
            t = len(self.tables[0][0]) if r else 0
            out = np.empty((r, c, t), dtype=dtypes()["route_out"])
            drop = np.empty((r, c, t), dtype=np.int64)
            for router, per_choice in enumerate(self.tables):
                for choice, entries in enumerate(per_choice):
                    out[router, choice] = [e[0] for e in entries]
                    drop[router, choice] = [e[1] for e in entries]
            window = np.array(self.windows, dtype=dtypes()["vc_window"])
            for array in (out, drop, window):
                array.setflags(write=False)  # shared by every network
            self._arrays = (out, drop, window)
        return self._arrays


def compile_routing(routing: RoutingAlgorithm, topology: Topology,
                    num_vcs: int) -> CompiledRouting:
    """Lookup tables for ``routing``.

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
    compiled = routing.compiled.get(num_vcs)
    if compiled is not None:
        return compiled
    choices = range(routing.num_route_choices)
    routers = range(topology.num_routers)
    ports = max((topology.num_outports(r) for r in routers), default=0)
    windows = tuple(
        tuple(routing.vc_window(choice, port, num_vcs)
              for port in (*range(ports), -1))
        for choice in choices)
    terminals = range(topology.num_terminals)
    # A table holds few distinct entries (one per port and drop): keep
    # one tuple of each, so a row costs pointers.
    entries: dict[tuple, tuple] = {}

    def entry(router, dst, choice):
        made = routing.route_entry(router, dst, choice)
        return entries.setdefault(made, made)

    tables = tuple(
        tuple(
            tuple(entry(router, dst, choice) for dst in terminals)
            for choice in choices)
        for router in routers)
    compiled = routing.compiled[num_vcs] = CompiledRouting(tables, windows)
    return compiled
