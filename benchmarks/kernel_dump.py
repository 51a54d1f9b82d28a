"""Dump one network's ``Chip`` for ``kernel_driver.c`` (which see).

``python benchmarks/kernel_dump.py OUT [k] [rate] [lanes] [cycles]
[baseline|pseudo]``: a ``lanes``-lane k x k mesh (XY, static VA, uniform
traffic at ``rate``, the shape of ``perf/``'s step-bound points) with its
sources bound for ``cycles`` cycles, written as its window's kernel call
would start: every array of ``CHIP_ARRAYS`` as its length (int64) then
its elements in the array's own width, then ``CHIP_SCALARS``, the cycle
and the window's end as int64, in ``kernel.c``'s order. Any scheme word
but ``baseline`` (Baseline) or ``pseudo`` (Pseudo+S+B) is refused.

``chip`` builds the same network for a caller that runs it itself, and
``digest`` is the driver's digest of what a run left behind.
"""

import struct
import sys

from repro.network.config import BASELINE, PSEUDO_SB, NetworkConfig
from repro.network.vectorized import BatchNetwork, core, kernel
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic

#: The scheme words a dump takes.
SCHEMES = {"baseline": BASELINE, "pseudo": PSEUDO_SB}
DEFAULTS = ("8", "0.045", "16", "1000", "baseline")


def chip(k, rate, lanes, cycles, scheme):
    """``(net, window)``: the network a dump holds, its pools sized for
    the whole run (the driver cannot grow one), and the call that runs
    its window of ``cycles`` cycles (``drain`` runs the rest)."""
    if scheme not in SCHEMES:
        raise ValueError(f"scheme {scheme!r}: one of {', '.join(SCHEMES)}")
    k, lanes, cycles = int(k), int(lanes), int(cycles)
    topo = make_topology("mesh", k, k, 1)
    net = BatchNetwork(topo, NetworkConfig(pseudo=SCHEMES[scheme]),
                       routing="xy", vc_policy="static",
                       seeds=range(1, lanes + 1))
    net._pcap = net._size_pool(core._PACKET_FIELDS, net._pcap, 1 << 16)
    net._fcap = net._size_pool(core._FLIT_FIELDS, net._fcap, 1 << 19)

    def window():
        net.run_batch([SyntheticTraffic("uniform", topo.num_terminals,
                                        float(rate), 5, seed=seed)
                       for seed in net.lane_seeds],
                      [cycles] * lanes, [cycles // 5] * lanes)
    return net, window


def digest(net) -> str:
    """FNV-1a (64 bits) over the bytes of ``counts``, ``hist`` and
    ``state``, as ``kernel_driver.c`` prints it: of ``hist`` the columns a
    dump starts with, the driver's whole histogram (it counts no latency
    past them, which ``VectorNetwork`` widens its histogram for)."""
    value = 0xcbf29ce484222325
    hist = net.hist[:, :core._HIST_WIDTH].copy()
    for array in (net.counts, hist, net._state):
        for byte in array.tobytes():
            value = ((value ^ byte) * 0x100000001b3) & (1 << 64) - 1
    return f"{value:016x}"


def main(argv) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out, *given = argv
    k, rate, lanes, cycles, scheme = (*given, *DEFAULTS[len(given):])
    try:
        net, window = chip(k, rate, lanes, cycles, scheme)
    except ValueError as err:
        print(f"kernel_dump: {err}", file=sys.stderr)
        return 2

    def dump(*_):
        binding, lists = net._kernel, kernel.load()
        with open(out, "wb") as fh:
            for _, name, _ in lists.arrays:
                array = binding._arrays[name]
                fh.write(struct.pack("<q", array.size) + array.tobytes())
            fh.write(struct.pack(
                f"<{len(lists.scalars) + 2}q",
                *(getattr(binding.chip, name) for name in lists.scalars),
                net.cycle, int(cycles)))
        print(f"wrote {out}: {net.step_kernel}, cycle {net.cycle}")
        sys.exit()

    net._advance = dump   # the window's one call into the kernel
    window()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
