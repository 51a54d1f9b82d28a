"""A flit is read no earlier than the cycle after it is written.

The buffer-write stage takes a cycle: a flit written into an input
buffer in cycle ``c`` reaches VA, the PC-candidate scan and the SA
requests in ``c + 1`` at the earliest. Both cores get that from the
order of their phases alone — the three scans run before BW in the same
router step, so no flit a scan examines can have been written in the
cycle it runs in. Pinned here on the whole parity grid (trace replay
behind MSHRs and EVC included):

* **compiled cycle** — the checked build counts, beside the front flits
  its scans examine, those of them written in the current cycle; the
  second count stays zero while the first does not;
* **scalar core** — a probe records the cycle each flit was buffered in
  and checks every later read against it: at the start of a cycle every
  buffered flit was written in an earlier one, and each VA grant and
  buffer read of a buffered flit comes at least a cycle after its write.
"""

import pytest

from repro.instrument import Probe
from repro.network.simulator import Network

from .test_vectorized_parity import GRID, _run


class WriteCycles(Probe):
    """The cycle each flit still buffered was written in (scalar core)."""

    def bind(self, network):
        self.written = {}
        self.reads = 0

    def on_cycle_start(self, cycle, network):
        assert all(at < cycle for at in self.written.values()), cycle

    def on_buffer_write(self, cycle, router, in_port, vc, flit):
        self.written[flit] = cycle

    def on_va_grant(self, cycle, router, in_port, vc, out_port, out_vc,
                    flit):
        # A head bypassing its buffer is granted as it arrives, unwritten.
        assert self.written.get(flit, -1) < cycle

    def on_traverse(self, cycle, router, in_port, vc, out_port, via, read,
                    flit):
        if read:
            assert self.written.pop(flit) < cycle
            self.reads += 1


class _Scalar(Network):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.bind_probe(WriteCycles())


@pytest.mark.parametrize("case", GRID)
def test_scalar_reads_follow_writes(case):
    topo_args, scheme, rate, cycles, kw = case
    net = _run(_Scalar, topo_args, scheme, rate, cycles, **kw)
    assert net.probe.reads and not net.probe.written


def test_compiled_scans_read_no_unready_front():
    pytest.importorskip("numpy")
    from repro.network.vectorized import VectorNetwork, core, kernel
    checked = kernel.load(kernel.CHECK_FLAGS)
    if not checked.status.startswith("c:"):
        pytest.skip(f"no compiled cycle here: {checked.refusal()}")

    class FrontReads(Probe):
        """Adds up, after every cycle, the checked build's counts of
        front flits examined not ready yet and examined at all (the last
        two entries of ``n[]``)."""

        vector_hooks = True

        def bind(self, network):
            self.n = network._kernel.n
            self.unready = self.visits = 0

        def vec_cycle_end(self, cycle, network):
            self.unready += int(self.n[-2])
            self.visits += int(self.n[-1])

    class Counted(VectorNetwork):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            self.bind_probe(FrontReads())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "load_kernel", lambda: checked)
        for topo_args, scheme, rate, cycles, kw in GRID:
            net = _run(Counted, topo_args, scheme, rate, cycles, **kw)
            assert net.probe.visits, (topo_args, kw)
            assert net.probe.unready == 0, (topo_args, kw)
