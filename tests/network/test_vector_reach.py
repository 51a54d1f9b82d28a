"""Reach of the array core: no function the grid cannot enter, no arrival
the checker cannot see.

The router step of ``vectorized/core.py`` has one batched form of every
event because two things never happen: two bypass attempts never share a
target output, and two arrivals never share an input port in one cycle.
Nothing in the hot path guards either; they are pinned here instead.

* **Reach.** The parity grid (``test_vectorized_parity.GRID``), the
  checked/probed harness route and one drain timeout run under
  ``sys.setprofile``; every ``def`` in ``core.py`` must be entered on
  ``VectorNetwork`` and every ``def`` in ``batch.py`` on
  ``BatchNetwork``. There is no allow-list: a function the grid cannot
  reach gets the one-line case that enters it, or is deleted. The
  router step has two forms, decided per process (compiled phases,
  numpy phases): the grid runs under both, every ``def`` must be
  entered under one of them, and every phase of ``kernel.c`` must be
  called and must emit.
* **Seeded duplicate arrival.** A ``(link, dest, fid)`` row pushed twice
  into ``_arr_bucket`` is caught by ``VectorInvariantChecker`` in the
  cycle it lands, naming the port (and the lane).
"""

import ast
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.core.violation import InvariantViolation
from repro.harness.experiment import (ExperimentConfig,
                                      run_batch_experiments, run_experiment)
from repro.network.config import BASELINE, PSEUDO_SB, NetworkConfig
from repro.network.vectorized import (BatchNetwork, VectorInvariantChecker,
                                      VectorNetwork, VectorSeriesProbe, batch,
                                      core, kernel)
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic

from .test_batched_parity import _batched_stats
from .test_vectorized_parity import GRID, _run


def _defined(module):
    """Qualified name of every ``def`` in ``module``'s source."""
    names = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                walk(child, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, prefix)

    walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8")), "")
    return names


@contextmanager
def _entered(module):
    """Collect the qualified names of ``module``'s functions entered
    while the block runs."""
    filename = module.__file__
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == filename:
            seen.add(frame.f_code.co_qualname)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield seen
    finally:
        sys.setprofile(previous)


def _loaded(cls, **kw):
    """A 4x4 mesh a few cycles into saturating traffic."""
    topo = make_topology("mesh", 4, 4, 1)
    net = cls(topo, NetworkConfig(pseudo=BASELINE), **kw)
    traffic = SyntheticTraffic("uniform", topo.num_terminals, 0.5, 5, seed=3)
    sink = net if cls is VectorNetwork else batch._LaneSink(net, 1)
    for _ in range(12):
        traffic.tick(sink, net.cycle)
        net.step()
    return net


_CHECKED = dict(topology="mesh", kx=4, ky=4, concentration=1, routing="xy",
                scheme=PSEUDO_SB, pattern="uniform", rate=0.25,
                synth_cycles=200, synth_warmup=40)


class _CountingBinding(kernel.Binding):
    """A ``Chip`` that notes which kernel phases ran and which emitted."""

    called: set = set()
    emitted: set = set()

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)

        def counting(phase):
            def call(*args):
                events = phase(*args)
                self.called.add(phase.__name__)
                if events:
                    self.emitted.add(phase.__name__)
                return events
            return call
        self.phases = [(key, counting(phase)) for key, phase in self.phases]


class TestReach:
    def test_grid_enters_every_core_function(self, monkeypatch):
        monkeypatch.setattr(core, "Binding", _CountingBinding)
        compiled = kernel.load().lib is not None
        with _entered(core) as seen:
            for cc in ((None, "false") if compiled else (None,)):
                if cc is not None:
                    monkeypatch.setenv("CC", cc)    # the numpy phases
                for topo_args, scheme, rate, cycles, kw in GRID:
                    _run(VectorNetwork, topo_args, scheme, rate, cycles, **kw)
                run_experiment(
                    ExperimentConfig(backend="vectorized", seed=7,
                                     **_CHECKED),
                    probe=VectorSeriesProbe(), check=True)
                with pytest.raises(RuntimeError, match="packets left"):
                    _loaded(VectorNetwork).drain(max_cycles=1)
        kernel_only = {"VectorNetwork._step_kernel",
                       "VectorNetwork._kernel_events", "VectorNetwork._file"}
        assert _defined(core) - seen == (set() if compiled else kernel_only)
        if compiled:
            phases = {entry for _, entry in kernel.PHASES}
            assert _CountingBinding.called == phases
            # Request collection hands its requests to the next phase.
            assert _CountingBinding.emitted == phases - {"va_sa_requests"}

    def test_grid_enters_every_batch_function(self):
        # Rows on one chip become the lanes of one batch; the 12-VC and
        # trace rows stay solo (``_batched_stats`` builds default-width
        # chips, and trace replay never batches).
        chips = {}
        for topo_args, scheme, rate, cycles, kw in GRID:
            kw = dict(kw)
            seed = kw.pop("seed", 7)
            if not kw.keys() <= {"routing", "vc_policy"}:
                continue
            chip = (topo_args, scheme, tuple(sorted(kw.items())))
            chips.setdefault(chip, []).append(("uniform", rate, seed, cycles))
        with _entered(batch) as seen:
            for (topo_args, scheme, kw), lanes in chips.items():
                _batched_stats(topo_args, scheme, lanes, **dict(kw))
            run_batch_experiments(
                [ExperimentConfig(backend="batched", seed=seed, **_CHECKED)
                 for seed in (3, 11)], check=True)
            net = _loaded(BatchNetwork, seeds=(1, 2))
            with pytest.raises(RuntimeError, match="packets left"):
                net.drain(max_cycles=1)
            with pytest.raises(TypeError, match="run_batch"):
                net.run(1)
        assert _defined(batch) - seen == set()


_DUPLICATE = pytest.mark.parametrize("cls,kw,lane", [
    (VectorNetwork, {}, None),
    (BatchNetwork, {"seeds": (1, 2, 3, 4)}, 1),
], ids=["solo", "4-lane"])


class TestSeededDuplicateArrival:
    """The plain fancy-index buffer write of the numpy phases relies on
    one arrival per input VC per cycle; were an upstream bug to deliver
    a flit twice, the checker — not a hot-path guard — reports it in the
    same cycle. The compiled phases buffer the flit twice, as the scalar
    core would, and the checker reports the credit it never paid for."""

    def _duplicated(self, cls, kw):
        net = _loaded(cls, **kw)
        net.attach_checker(VectorInvariantChecker(strict=True))
        c = net.cycle
        links, dests, fids = net._arr_bucket[c][0]
        net._arr_bucket[c].append((links[:1], dests[:1], fids[:1]))
        with pytest.raises(InvariantViolation) as caught:
            net.step()
        return net, caught.value, c, int(dests[0]), int(fids[0])

    @_DUPLICATE
    def test_checker_raises_conservation_in_the_same_cycle(
            self, cls, kw, lane, monkeypatch):
        monkeypatch.setenv("CC", "false")
        net, v, c, dest, fid = self._duplicated(cls, kw)
        local = dest % (net._NIP // net._lanes)
        assert (v.rule, v.cycle, v.lane) == ("conservation", c, lane)
        assert (v.router, v.port) == divmod(local, net._Pi)
        assert v.vc == int(net.f_vc[fid])

    @_DUPLICATE
    def test_checker_raises_credit_in_the_same_cycle_on_the_kernel(
            self, cls, kw, lane):
        if kernel.load().lib is None:
            pytest.skip(f"no compiled step ({kernel.load().status})")
        net, v, c, dest, fid = self._duplicated(cls, kw)
        # Named by the sender's side of the link: the output VC whose
        # counter is one short of the two flits it now has downstream.
        upstream = int(net._lay.ip_upbase[dest]) // net._V
        local = upstream % (net._NOP // net._lanes)
        assert (v.rule, v.cycle, v.lane) == ("credit_count", c, lane)
        assert (v.router, v.port) == divmod(local, net._Po)
        assert v.vc == int(net.f_vc[fid])
