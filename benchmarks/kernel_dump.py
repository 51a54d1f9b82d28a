"""Dump one network's ``Chip`` for ``kernel_driver.c`` (which see).

``python benchmarks/kernel_dump.py OUT [k] [rate] [lanes] [cycles]
[baseline|pseudo]``: a ``lanes``-lane k x k mesh (XY, static VA, uniform
traffic at ``rate``, the shape of ``perf/``'s step-bound points) with its
sources bound for ``cycles`` cycles, written as its window's kernel call
would start: every
array of ``CHIP_ARRAYS`` as length + bytes, then ``CHIP_SCALARS``, the
cycle and the window's end, int64 throughout, in ``kernel.c``'s order.
"""

import struct
import sys

from repro.network.config import BASELINE, PSEUDO_SB, NetworkConfig
from repro.network.vectorized import BatchNetwork, core, kernel
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic

out, *given = sys.argv[1:]
k, rate, lanes, cycles, scheme = (
    *given, *("8", "0.045", "16", "1000", "baseline")[len(given):])
topo = make_topology("mesh", int(k), int(k), 1)
net = BatchNetwork(
    topo, NetworkConfig(pseudo=PSEUDO_SB if scheme == "pseudo" else BASELINE),
    routing="xy", vc_policy="static", seeds=range(1, int(lanes) + 1))
# The driver cannot grow a pool: room for every packet the run may hold.
net._pcap = net._size_pool(core._PACKET_FIELDS, net._pcap, 1 << 16)
net._fcap = net._size_pool(core._FLIT_FIELDS, net._fcap, 1 << 19)


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
net.run_batch([SyntheticTraffic("uniform", topo.num_terminals, float(rate), 5,
                                seed=seed) for seed in net.lane_seeds],
              [int(cycles)] * net.lanes, [int(cycles) // 5] * net.lanes)
