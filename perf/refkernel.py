"""Host-speed reference: a fixed kernel timed beside the measurements.

The reference VM's speed swings by up to 1.8x for minutes at a time
(other tenants), far more than any bound could absorb: over ten runs
``sat_points`` spread by 31 % raw and 9 % once divided by this kernel's
time in the same run, ``lowload_sweep`` by 22 % and 6 %. So every
end-to-end *time* is reported at reference host speed: measured
seconds times ``NOMINAL_S / (the kernel's seconds in that run)``. The
kernel is half interpreter work (the scalar core's diet) and half
small-array numpy dispatch (the vectorized cores'), and it shares no
code with the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

#: The kernel's time on the reference box when nothing else runs
#: there, so that at that speed reported and measured seconds agree.
NOMINAL_S = 0.060


def reference_kernel() -> float:
    """Seconds the fixed kernel takes right now."""
    import numpy as np
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(150_000):
        acc += i * i % 7
        table[i & 255] = acc
    lanes = np.arange(4096)
    for _ in range(1500):
        bumped = lanes + 1
        mask = bumped & 3 == 0
        np.cumsum(bumped[mask])
        np.add.at(lanes, mask.nonzero()[0] & 1023, 1)
    return time.perf_counter() - start
