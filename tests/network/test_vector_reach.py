"""Reach of the array core: no function the grid cannot enter, no arrival
the checker cannot see.

The compiled cycle (``vectorized/kernel.c``) handles one flit at a time
and guards nothing the scalar core does not: two arrivals never share
an input port in one cycle because a link delivers one flit per cycle.
That is pinned here instead.

* **Reach.** The parity grid (``test_vectorized_parity.GRID``), the
  checked/probed harness route, one drain timeout and a CMP run whose
  delivery callbacks stop cycles halfway run under
  ``sys.setprofile`` on the kernel's checked build, which notes every
  function it enters; every ``def`` in ``core.py`` must be entered on
  ``VectorNetwork``, every ``def`` in ``batch.py`` on ``BatchNetwork``,
  and every function of ``kernel.c`` by the cycles they step. There is
  no allow-list: a function the grid cannot reach gets the one-line case
  that enters it, or is deleted.
* **Seeded duplicate arrival.** A ``(port, fid)`` entry written twice
  into the arrival ring is caught by the walk in the cycle it lands,
  naming the port (and the lane), as its oracle names it.
"""

import ast
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.cmp.system import CmpSystem
from repro.core.violation import InvariantViolation
from repro.harness.experiment import (ExperimentConfig,
                                      run_batch_experiments, run_experiment)
from repro.instrument import TimeSeriesProbe
from repro.network.config import BASELINE, PSEUDO_SB, NetworkConfig
from repro.network.flit import Packet
from repro.network.vectorized import (BatchNetwork, VectorInvariantChecker,
                                      VectorNetwork, batch, core, kernel)
from repro.topology import make_topology
from repro.traffic import synthetic
from repro.traffic.synthetic import SyntheticTraffic

from .sweep_oracle import SweepOracle, same_first
from .test_batched_parity import _batched_stats, lane_sink
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
def _entered(*modules):
    """Collect the qualified names of the ``modules``' functions entered
    while the block runs."""
    filenames = {module.__file__ for module in modules}
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in filenames:
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
    sink = net if cls is VectorNetwork else lane_sink(net, 1)
    for _ in range(12):
        traffic.tick(sink, net.cycle)
        net.step()
    return net


_CHECKED = dict(topology="mesh", kx=4, ky=4, concentration=1, routing="xy",
                scheme=PSEUDO_SB, pattern="uniform", rate=0.25,
                synth_cycles=200, synth_warmup=40)


def _kernel_functions():
    """Every function ``kernel.c`` defines, less the checked build's own
    instrumentation (the ``#ifdef REPRO_KERNEL_CHECK`` blocks)."""
    source = Path(kernel._SOURCE).read_text(encoding="utf-8")
    source = re.sub(r"#ifdef REPRO_KERNEL_CHECK\n.*?\n#(?:else|endif)\n", "",
                    source, flags=re.S)
    return set(re.findall(r"^(?:static )?[a-z]\w*(?: \*?|\*? )\*?(\w+)\("
                          r"[^;{]*\)\n\{", source, flags=re.M))


class TestReach:
    def test_grid_enters_every_core_function(self, monkeypatch):
        checked = kernel.load(kernel.CHECK_FLAGS)
        assert checked.status.startswith("c:"), checked.refusal()
        monkeypatch.setattr(core, "load_kernel", lambda: checked)
        checked.reach_reset()
        with _entered(core, synthetic) as seen:
            for topo_args, scheme, rate, cycles, kw in GRID:
                _run(VectorNetwork, topo_args, scheme, rate, cycles, **kw)
            run_experiment(
                ExperimentConfig(backend="vectorized", seed=7, **_CHECKED),
                probe=TimeSeriesProbe(), check=True)
            # Mid-run, with a source queue longer than its NIC has VCs:
            # the walk follows it, a solo network is its own lane 0, and
            # it cannot drain in one cycle.
            net = _loaded(VectorNetwork)
            for _ in range(6):
                net.inject(Packet(0, 15, 5, net.cycle))
            net.step()
            net.check_invariants()
            assert net._num_queued and net.lane_stats(0) == net.stats
            with pytest.raises(RuntimeError, match="packets left"):
                net.drain(max_cycles=1)
            # A chip the walk finds wrong: it works out where, by router.
            net.cred[0] -= 1
            with pytest.raises(InvariantViolation, match="credit"):
                net.check_invariants()
            # Delivery callbacks (the CMP's endpoints): cycles that come
            # back after their ejection stage and then go on.
            CmpSystem("radix", network=VectorNetwork(
                make_topology("cmesh", 4, 4, 4), NetworkConfig(),
                routing="o1turn", seed=3), seed=3).run(120)
        assert _defined(core) - seen == set()
        # The grid's sources went to the kernel and came back.
        assert {"SyntheticTraffic.export_stream",
                "SyntheticTraffic.restore_stream"} <= seen
        # What only the loader calls: the handle's known-answer test.
        assert checked.self_test(np)
        functions = _kernel_functions()
        assert {"cycle_eject", "delivers", "cycle_rest", "va_sa_switch",
                "inject_send", "rr_pick",
                "source_tick", "source_ahead", "summarise",
                "rotated"} <= functions
        assert functions - set(checked.reached()) == set()

    def test_grid_enters_every_batch_function(self):
        # Rows on one chip become the lanes of one batch; the 12-VC and
        # trace rows stay solo (``_batched_stats`` builds default-width
        # chips, and trace replay never batches).
        chips = {}
        for topo_args, scheme, rate, cycles, kw in GRID:
            kw = dict(kw)
            seed, pattern = kw.pop("seed", 7), kw.pop("pattern", "uniform")
            if not kw.keys() <= {"routing", "vc_policy"}:
                continue
            chip = (topo_args, scheme, tuple(sorted(kw.items())))
            chips.setdefault(chip, []).append((pattern, rate, seed, cycles))
        with _entered(batch) as seen:
            for (topo_args, scheme, kw), lanes in chips.items():
                _batched_stats(topo_args, scheme, lanes, **dict(kw))
            run_batch_experiments(
                [ExperimentConfig(backend="auto", seed=seed, **_CHECKED)
                 for seed in (3, 11)], check=True)
            net = _loaded(BatchNetwork, seeds=(1, 2))
            with pytest.raises(RuntimeError, match="packets left"):
                net.drain(max_cycles=1)
            with pytest.raises(TypeError, match="run_batch"):
                net.run(1)
            net.reset(seeds=(3, 4))     # what the idle pool does
            assert net.quiescent() and net.lane_seeds == (3, 4)
        assert _defined(batch) - seen == set()


_DUPLICATE = pytest.mark.parametrize("cls,kw,lane", [
    (VectorNetwork, {}, None),
    (BatchNetwork, {"seeds": (1, 2, 3, 4)}, 1),
], ids=["solo", "4-lane"])


def _duplicate(net):
    """Write the first arrival due this cycle into the ring twice: the
    cycle, the port and the flit."""
    c = net.cycle
    row, (ports, fids) = net._rings["arrivals"]
    slot = c % net._RD
    due = int(net.ring_n[row, slot])
    assert due, "no arrival to duplicate"
    dest, fid = int(ports[slot, 0]), int(fids[slot, 0])
    ports[slot, due], fids[slot, due] = dest, fid
    net.ring_n[row, slot] = due + 1
    return c, dest, fid


class TestSeededDuplicateArrival:
    """The kernel buffers what the arrival ring holds; were an upstream
    bug to deliver a flit twice, the walk — not a hot-path guard —
    reports it in the same cycle, as its oracle does: the flit sits in
    two buffer slots. The oracle, which records every rule a sweep
    breaks, shows the other: the second never paid a credit."""

    @staticmethod
    def _walked_and_swept(cls, kw, stride):
        """The duplicate seeded into a run checked by the walk and into
        one swept by the oracle, at ``stride``, ``stride`` cycles on: the
        outcome both reach, and the cycle, port and flit seeded."""
        seeded = []

        def drive(net):
            seeded.append(_duplicate(net))
            for _ in range(stride):
                net.step()
        v = same_first(lambda: _loaded(cls, **kw), drive, stride,
                       found=stride == 1)
        assert seeded[0] == seeded[1]
        return v, seeded[0]

    @_DUPLICATE
    def test_checker_raises_conservation_in_the_same_cycle(
            self, cls, kw, lane):
        v, (c, dest, fid) = self._walked_and_swept(cls, kw, 1)
        net = _loaded(cls, **kw)
        local = dest % (net._NIP // net._lanes)
        assert (v["rule"], v["cycle"], v["actual"]) == ("conservation", c,
                                                       fid)
        assert v["lane"] == lane
        assert (v["router"], v["port"]) == divmod(local, net._Pi)

    @_DUPLICATE
    def test_the_next_walk_at_stride_7_agrees_with_the_oracle(
            self, cls, kw, lane, monkeypatch):
        # The cycles may trip over the second flit before the next walk:
        # on the checked build, by name, on both sides.
        built = kernel.load(kernel.CHECK_FLAGS)
        monkeypatch.setattr(core, "load_kernel", lambda: built)
        v, (c, _, _) = self._walked_and_swept(cls, kw, 7)
        if isinstance(v, dict):
            assert c <= v["cycle"] < c + 7 and v["lane"] == lane

    @_DUPLICATE
    def test_checker_raises_credit_in_the_same_cycle_on_the_kernel(
            self, cls, kw, lane):
        net = _loaded(cls, **kw)
        checker, oracle = (VectorInvariantChecker(strict=False),
                           SweepOracle(strict=False))
        net.attach_checker(checker)
        net.bind_probe(oracle)
        c, dest, fid = _duplicate(net)
        net.step()
        assert {v.cycle for v in checker.violations + oracle.violations} \
            == {c}
        assert checker.violations[0].to_dict() \
            == oracle.violations[0].to_dict()
        raised = {v.rule: v for v in oracle.violations}
        assert raised["conservation"].vc == int(net.f_vc[fid])
        v = raised["credit_count"]
        # Named by the sender's side of the link: the output VC whose
        # counter is one short of the two flits it now has downstream.
        upstream = int(net._lay.ip_upbase[dest]) // net._V
        local = upstream % (net._NOP // net._lanes)
        assert v.lane == lane
        assert (v.router, v.port) == divmod(local, net._Po)
        assert v.vc == int(net.f_vc[fid])
