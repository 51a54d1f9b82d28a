"""Windowed per-router time series with ring-buffer storage.

``TimeSeriesProbe`` accumulates per-router activity counters (crossbar
hops, SA/buffer bypasses, buffer writes/reads, injections, ejections) and
closes a sample window every ``window`` cycles, snapshotting buffer
occupancy at the boundary. Samples live in a ``deque(maxlen=capacity)``,
so memory is bounded no matter how long the run is.

Windows close in ``on_cycle_start`` — *before* any event of the closing
cycle lands — so attribution is exact, including across quiescence
fast-forwards (the skipped cycles are event-free by construction; skipped
windows are emitted with zero activity and the carried occupancy).

One probe serves every core: on the scalar ``Network`` it counts the
``on_*`` events into lists, on an array core each cycle's ``events()``
into arrays of the network's numpy (``vec_cycle_end``), with
bit-identical rows.

Exports:

* :meth:`to_csv` — long format, one row per (window, router), with the
  derived ``pc_reuse`` (SA-bypass fraction) and ``link_util`` (flits
  launched per cycle) columns.
* :meth:`to_json` — per-window arrays plus network-wide totals.
* :meth:`heatmap` / :meth:`write_heatmap` — a spatial per-router grid for
  mesh/cmesh (any ``GridTopology``): activity metrics are summed over the
  recorded windows, occupancy is averaged.
"""

from __future__ import annotations

import json
from collections import deque

from .probe import Probe

#: Per-router accumulator keys, in export column order.
ACTIVITY_KEYS = ("hops", "sa_bypass", "buf_bypass", "buffer_writes",
                 "buffer_reads", "injected", "ejected")


class TimeSeriesProbe(Probe):
    """Ring-buffered windowed samples of per-router activity."""

    vector_hooks = True

    def __init__(self, window: int = 64, capacity: int | None = 4096):
        if window < 1:
            raise ValueError("window must be >= 1 cycle")
        self.window = window
        self.capacity = capacity
        #: Closed windows, oldest first (bounded by ``capacity``).
        self.samples: deque[dict] = deque(maxlen=capacity)
        self._network = None
        self._np = None    # numpy while bound to an array core
        self._num = 0
        self._acc: dict = {}
        self._terminal_router = []
        self._win_start = 0
        self._boundary = window

    def bind(self, network) -> None:
        self._network = network
        if hasattr(network, "routers"):
            topo = network.topology
            self._np = None
            self._num = topo.num_routers
            self._terminal_router = [topo.terminal_router(t)
                                     for t in range(topo.num_terminals)]
        else:
            lay = network._lay
            self._np = network._np
            self._num = lay.R
            self._terminal_router = lay.inj_ipid // lay.Pi
            self._ivc_router = lay.Pi * lay.V   # ivcs per router
        self._acc = {key: self._zeros() for key in ACTIVITY_KEYS}
        self._win_start = network.cycle
        self._boundary = network.cycle + self.window

    # -- accumulation ---------------------------------------------------------

    def on_traverse(self, cycle, router, in_port, vc, out_port, via, read,
                    flit):
        acc = self._acc
        acc["hops"][router] += 1
        if via != "sa":
            acc["sa_bypass"][router] += 1
            if via == "buf":
                acc["buf_bypass"][router] += 1
        if read:
            acc["buffer_reads"][router] += 1

    def on_buffer_write(self, cycle, router, in_port, vc, flit):
        self._acc["buffer_writes"][router] += 1

    def on_inject(self, cycle, terminal, packet):
        self._acc["injected"][self._terminal_router[terminal]] += 1

    def on_eject(self, cycle, terminal, packet):
        self._acc["ejected"][self._terminal_router[terminal]] += 1

    def vec_cycle_end(self, cycle, network):
        events = network.events()
        acc, add, per = self._acc, self._np.add.at, self._ivc_router
        add(acc["buffer_writes"], events["buffer_writes"] // per, 1)
        for via, popped, ivcs in events["traversals"]:
            routers = ivcs // per
            add(acc["hops"], routers, 1)
            if via != "sa":
                add(acc["sa_bypass"], routers, 1)
                if via == "buf":
                    add(acc["buf_bypass"], routers, 1)
            if popped:
                add(acc["buffer_reads"], routers, 1)
        for key, terminals in (("injected", events["starts"]),
                               ("ejected", events["ejects"])):
            add(acc[key], self._terminal_router[terminals], 1)

    # -- window management ----------------------------------------------------

    def on_cycle_start(self, cycle, network):
        while cycle >= self._boundary:
            self._close(self._boundary)

    def _zeros(self):
        if self._np is None:
            return [0] * self._num
        return self._np.zeros(self._num, dtype=self._np.int64)

    def _occupancy(self) -> list[int]:
        if self._np is None:
            return [router._buffered_flits
                    for router in self._network.routers]
        return self._network._r_buffered.tolist()

    def _close(self, end: int) -> None:
        acc = self._acc
        row = {"start": self._win_start, "end": end,
               "occupancy": self._occupancy()}
        for key in ACTIVITY_KEYS:
            row[key] = acc[key] if self._np is None else acc[key].tolist()
            acc[key] = self._zeros()
        self.samples.append(row)
        self._win_start = end
        self._boundary = end + self.window

    def flush(self, cycle: int | None = None) -> None:
        """Close the open window (call once after the run finishes).

        ``cycle`` defaults to the bound network's current cycle; a window
        of zero elapsed cycles is discarded rather than emitted.
        """
        if cycle is None:
            cycle = self._network.cycle
        while cycle >= self._boundary:
            self._close(self._boundary)
        if cycle > self._win_start:
            self._close(cycle)

    # -- derived views --------------------------------------------------------

    def network_rows(self) -> list[dict]:
        """Network-wide totals per window (activity summed over routers)."""
        rows = []
        for sample in self.samples:
            row = {"start": sample["start"], "end": sample["end"],
                   "occupancy": sum(sample["occupancy"])}
            for key in ACTIVITY_KEYS:
                row[key] = sum(sample[key])
            hops = row["hops"]
            row["pc_reuse"] = row["sa_bypass"] / hops if hops else 0.0
            rows.append(row)
        return rows

    # -- exports --------------------------------------------------------------

    def to_csv(self, path: str) -> str:
        """Long-format CSV: one row per (window, router)."""
        header = ("start,end,router,occupancy," + ",".join(ACTIVITY_KEYS)
                  + ",pc_reuse,link_util")
        lines = [header]
        for sample in self.samples:
            span = sample["end"] - sample["start"]
            for r in range(self._num):
                hops = sample["hops"][r]
                reuse = sample["sa_bypass"][r] / hops if hops else 0.0
                util = hops / span if span else 0.0
                cells = [str(sample["start"]), str(sample["end"]), str(r),
                         str(sample["occupancy"][r])]
                cells += [str(sample[key][r]) for key in ACTIVITY_KEYS]
                cells += [f"{reuse:.4f}", f"{util:.4f}"]
                lines.append(",".join(cells))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def to_json(self, path: str) -> str:
        payload = {"window": self.window, "num_routers": self._num,
                   "samples": list(self.samples),
                   "network": self.network_rows()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
        return path

    def heatmap(self, metric: str = "hops") -> dict:
        """Spatial per-router grid of ``metric`` over the recorded windows.

        Activity metrics are summed; ``occupancy`` is averaged. Requires a
        grid topology (mesh/cmesh/fbfly) with ``kx``/``ky``/``coords``.
        """
        if metric != "occupancy" and metric not in ACTIVITY_KEYS:
            raise ValueError(f"unknown heatmap metric {metric!r}")
        topo = self._network.topology
        if not hasattr(topo, "kx"):
            raise ValueError(
                f"heatmap needs a grid topology, got {topo.name!r}")
        totals = [0.0] * self._num
        for sample in self.samples:
            values = sample[metric]
            for r in range(self._num):
                totals[r] += values[r]
        if metric == "occupancy" and self.samples:
            totals = [t / len(self.samples) for t in totals]
        grid = [[0.0] * topo.kx for _ in range(topo.ky)]
        for r in range(self._num):
            x, y = topo.coords(r)
            grid[y][x] = totals[r]
        return {"metric": metric, "kx": topo.kx, "ky": topo.ky,
                "windows": len(self.samples), "grid": grid}

    def write_heatmap(self, path: str, metric: str = "hops") -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.heatmap(metric), fh)
            fh.write("\n")
        return path
