"""The compiled router step (``vectorized/kernel.c``) and its loader.

The array cores step their routers through C when the process finds a
compiler and through numpy when it does not; both must be the same
simulator. Pinned here:

* **Per-phase differential.** The same run on the numpy phases and on
  the kernel, compared at every phase-timer mark of every cycle: every
  state array, every calendar and every index array handed to a stats
  or observer hook since the previous mark. Both start each phase from
  equal state (that is what the previous mark asserted), so a
  divergence names the first phase, cycle and array it appears in.
* **The numpy twin stays held.** The parity, batched-parity,
  irregular-parity and property suites once more with ``CC=false``.
* **Checked build.** The parity grid under ``-DREPRO_KERNEL_CHECK``:
  an out-of-bounds access is the one fault fingerprint parity cannot
  see; a seeded one is raised naming array and index.
* **Pools.** Both pools grow mid-flight and the ``Chip`` follows.
* **Loader.** Every way the build can go wrong ends in its named
  ``step_kernel`` reason and the same result, never in an exception.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.harness.experiment import (ExperimentConfig,
                                      run_batch_experiments, run_experiment)
from repro.network.buffers import BufferOverflowError
from repro.network.config import PSEUDO_SB, NetworkConfig
from repro.network.router import ProtocolError
from repro.network.simulator import Network
from repro.network.vectorized import (BatchNetwork, VectorHooks,
                                      VectorNetwork, core, kernel)
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic

from . import test_batched_parity, test_irregular_parity
from .test_vectorized_parity import (CONCENTRATED, GRID, MESH4X4, MESH8X8,
                                      ROUTINGS, SEEDS, _run)

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def compiled(_private_kernel_cache):
    """Every test here compares against the compiled step."""
    status = kernel.load().status
    if not status.startswith("c:"):
        pytest.skip(f"no compiled step on this machine ({status})")
    return status


@pytest.fixture
def numpy_step(monkeypatch):
    """Networks built from here on find no compiler."""
    monkeypatch.setenv("CC", "false")
    assert kernel.load().status == "numpy:no-compiler"


@pytest.fixture
def checked_step(monkeypatch):
    """Networks built from here on run the bounds-checked build."""
    checked = kernel.load(kernel.CHECK_FLAGS)
    assert checked.status.startswith("c:")
    monkeypatch.setattr(core, "load_kernel", lambda: checked)


# -- per-phase differential ---------------------------------------------------

#: Everything ``_step_routers`` .. ``_deliver`` may write.
_STATE = ("vc_state", "vc_out_port", "vc_out_opid", "vc_out_vc",
          "vc_out_cred", "buf_fid", "buf_head", "buf_len", "pc_in_vc",
          "pc_out_port", "pc_valid", "ip_st", "ip_last_out", "ip_last_pair",
          "op_st", "op_holder", "op_hist", "in_arb_next", "out_arb_next",
          "cred", "cred_free", "_r_buffered", "p_hops", "p_sa", "p_buf",
          "f_vc", "f_ready", "_buffered", "_ej_pending")
_CALENDARS = ("_arr_bucket", "_ej_bucket", "_cred_bucket")
_HOOKS = ("_count_va", "_count_traversals", "_count_terminations",
          "_count_established", "_count_restored", "_count_buffer_writes")


def _plain(value):
    return value.tolist() if hasattr(value, "tolist") else value


def _digest(value):
    """State is compared by hash: a mark of an 8x8 holds ~50 000 words,
    a run several thousand marks."""
    return hash(value.tobytes()) if hasattr(value, "tobytes") else value


class _Observer(VectorHooks):
    """Records the two observer hooks the router step drives."""

    def __init__(self, pending):
        self.pending = pending

    def bind(self, network):
        pass

    def on_cycle_start(self, cycle, network):
        pass

    def vec_buffer_writes(self, cycle, aivc):
        self.pending.append(("vec_buffer_writes", cycle, aivc.tolist()))

    def vec_traversals(self, cycle, via, popped, ivcs):
        self.pending.append(("vec_traversals", cycle, via, popped,
                             ivcs.tolist()))


class _Marks(dict):
    """The phase-timer dict of ``enable_profile``: every mark the step
    loop makes also logs the network's state and the hook calls since
    the previous mark. Each hook call is compared argument for
    argument, but not their order within one phase (every hook adds to
    counters), and VA winners are compared as a set — the numpy phase
    emits them pool by pool, the kernel in the scalar visit order."""

    def __init__(self, net, log):
        super().__init__(net.enable_profile())
        self.net, self.log, self.pending = net, log, []

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        net = self.net
        granted = sorted(ivc for call in self.pending
                         if call[0] == "_count_va" for ivc in call[1])
        calls = sorted((call for call in self.pending
                        if call[0] != "_count_va"), key=repr)
        self.pending.clear()
        state = {name: _digest(getattr(net, name)) for name in _STATE}
        for name in _CALENDARS:
            state[name] = {
                cycle: [_digest(np.concatenate(column))
                        for column in (zip(*batches)
                                       if isinstance(batches[0], tuple)
                                       else [batches])]
                for cycle, batches in sorted(getattr(net, name).items())}
        self.log.append((net.cycle, key, granted, calls, state))


def _traced(cls, log):
    """``cls``, whose instances log every phase mark into ``log``."""
    def build(*args, **kw):
        net = cls(*args, **kw)
        marks = net._prof = _Marks(net, log)
        for name in _HOOKS:
            def spy(*args, _hook=getattr(net, name), _name=name):
                marks.pending.append(
                    (_name, *(_plain(arg) for arg in args)))
                return _hook(*args)
            setattr(net, name, spy)
        net.bind_probe(_Observer(marks.pending))
        return net
    return build


def _first_difference(numpy_log, kernel_log):
    assert len(numpy_log) == len(kernel_log)
    for (cycle, key, *ours), (cycle_k, key_k, *theirs) in zip(numpy_log,
                                                              kernel_log):
        assert (cycle, key) == (cycle_k, key_k)
        for what, a, b in zip(("VA winners", "hook calls", "state"), ours,
                              theirs):
            if a != b:
                if what == "state":
                    what = [name for name in a if a[name] != b[name]]
                return f"cycle {cycle}, mark {key!r}: {what} differ"
    return None


def _differential(drive, monkeypatch):
    """Run ``drive(log)`` on the numpy phases, then on the kernel."""
    logs = {}
    for mode in ("numpy", "kernel"):
        with monkeypatch.context() as patch:
            if mode == "numpy":
                patch.setenv("CC", "false")
            logs[mode] = []
            net = drive(logs[mode])
            assert net.step_kernel.startswith(
                "numpy:" if mode == "numpy" else "c:")
    assert logs["numpy"], "the run made no phase mark"
    assert _first_difference(logs["numpy"], logs["kernel"]) is None


#: The parity grid by test id: each scheme under both VC policies,
#: low load and saturation, o1turn's VC windows, wide arbiters, 12 VCs,
#: MSHR-gated trace replay.
_GRID = {**MESH8X8, **MESH4X4, **ROUTINGS, **CONCENTRATED,
         **{f"seed-{seed}": case for seed, case in SEEDS.items()}}
assert list(_GRID.values()) == GRID


class TestPerPhaseDifferential:
    @pytest.mark.parametrize("case", _GRID.values(), ids=_GRID)
    def test_parity_grid(self, case, monkeypatch):
        topo_args, scheme, rate, cycles, kw = case
        _differential(
            lambda log: _run(_traced(VectorNetwork, log), topo_args, scheme,
                             rate, cycles, **kw), monkeypatch)

    @pytest.mark.parametrize("topo_args,topo_kw",
                             test_irregular_parity.POINTS,
                             ids=test_irregular_parity.POINT_IDS)
    def test_irregular_latencies(self, topo_args, topo_kw, monkeypatch):
        """Chiplet and kite links differ in latency: one traversal batch
        lands on several cycles of the calendars."""
        _differential(
            lambda log: test_irregular_parity._run(
                _traced(VectorNetwork, log), topo_args, topo_kw, PSEUDO_SB,
                0.20, 200), monkeypatch)

    def test_four_lane_batch(self, monkeypatch):
        def drive(log):
            built = []

            def build(*args, **kw):
                built.append(_traced(BatchNetwork, log)(*args, **kw))
                return built[0]
            monkeypatch.setattr(test_batched_parity, "BatchNetwork", build)
            test_batched_parity._batched_stats(
                ("mesh", 4, 4, 1), PSEUDO_SB,
                test_batched_parity.MIXED_LANES, vc_policy="static")
            return built[0]
        _differential(drive, monkeypatch)


# -- the numpy twin, still held to the scalar core ----------------------------

@pytest.mark.parametrize("suite", ["test_vectorized_parity",
                                   "test_batched_parity",
                                   "test_irregular_parity",
                                   "test_vectorized_property"])
def test_suite_passes_without_a_compiler(suite):
    """The suite as it stands, in an interpreter that finds no compiler:
    every case it holds the kernel to, it holds the numpy phases to."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p",
         "no:cacheprovider", f"tests/network/{suite}.py"],
        cwd=REPO, env=dict(os.environ, CC="false"), capture_output=True,
        text=True, timeout=900)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]


_POINT = dict(topology="mesh", kx=4, ky=4, concentration=1, routing="xy",
              scheme=PSEUDO_SB, pattern="uniform", rate=0.25,
              synth_cycles=150, synth_warmup=30, seed=7)


def _solo():
    return run_experiment(ExperimentConfig(backend="vectorized", **_POINT),
                          use_cache=False)


class TestManifest:
    def test_both_paths_are_named_and_agree(self, compiled, monkeypatch):
        fast = _solo()
        lanes = run_batch_experiments(
            [ExperimentConfig(backend="batched", **_POINT)],
            use_cache=False)
        assert fast.manifest["step_kernel"] == compiled
        assert lanes[0].manifest["step_kernel"] == compiled
        monkeypatch.setenv("CC", "false")
        slow = _solo()
        assert slow.manifest["step_kernel"] == "numpy:no-compiler"
        # Result equality is every measured field; the lane's config
        # differs in the backend it names.
        assert slow == fast == dataclasses.replace(lanes[0],
                                                   config=fast.config)
        assert (slow.manifest["backend"], lanes[0].manifest["backend"]) == (
            "vectorized", "batched")

    def test_scalar_points_say_nothing(self):
        result = run_experiment(ExperimentConfig(backend="scalar", **_POINT),
                                use_cache=False)
        assert "step_kernel" not in result.manifest

    def test_point_spans_carry_it(self, compiled, tmp_path):
        from repro.harness import run_experiments
        from repro.telemetry.stream import read_stream
        stream = tmp_path / "sweep.telemetry.jsonl"
        run_experiments(
            [ExperimentConfig(backend="vectorized", **_POINT),
             *(ExperimentConfig(backend="batched", **dict(_POINT, seed=s))
               for s in (1, 2))],
            max_workers=1, batch_size=2, telemetry=str(stream))
        spans = [rec for rec in read_stream(str(stream))
                 if rec["ev"] == "point"]
        assert [span["backend"] for span in spans] == [
            "vectorized", "batched", "batched"]
        assert {span["step_kernel"] for span in spans} == {compiled}


# -- the checked build --------------------------------------------------------

class TestCheckedBuild:
    def test_parity_grid_stays_in_bounds(self, checked_step):
        """Every array access of the grid, checked: same fingerprints
        as the release build, no fault."""
        for topo_args, scheme, rate, cycles, kw in GRID:
            checked = _run(VectorNetwork, topo_args, scheme, rate, cycles,
                           **kw)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "load_kernel", kernel.load)
                release = _run(VectorNetwork, topo_args, scheme, rate,
                               cycles, **kw)
            assert checked.step_kernel != release.step_kernel
            assert checked.stats.fingerprint() == release.stats.fingerprint()
            assert checked.cycle == release.cycle

    def test_a_wild_index_is_named(self, checked_step):
        topo = make_topology("mesh", 4, 4, 1)
        net = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB))
        traffic = SyntheticTraffic("uniform", topo.num_terminals, 0.5, 5,
                                   seed=3)
        for _ in range(12):
            traffic.tick(net, net.cycle)
            net.step()
        _, dests, fids = net._arr_bucket[net.cycle][0]
        net.f_vc[fids[0]] = 10 ** 6     # an arrival on VC one million
        wild = int(dests[0]) * net._V + 10 ** 6
        with pytest.raises(ProtocolError) as caught:
            net.step()
        assert str(caught.value) == (
            f"kernel bounds check: buf_len[{wild}] is outside its "
            f"{net._NIVC} elements")


# -- errors -------------------------------------------------------------------
# Each fault is seeded into a 4x4 chip a few cycles into saturating
# traffic, at the first cycle that offers it; the next step must raise
# the same error, from the same cycle, on both forms of the step.

def _fronts(net):
    """(ivc, front flit) of every occupied VC whose front is ready."""
    ivcs = net.buf_len.nonzero()[0]
    fids = net.buf_fid[ivcs, net.buf_head[ivcs]]
    ready = net.f_ready[fids] <= net.cycle
    return zip(ivcs[ready].tolist(), fids[ready].tolist())


def _bypass_offers(net, head):
    """Arrivals of this cycle at the idle, empty VC of a valid circuit."""
    for _, dests, fids in net._arr_bucket.get(net.cycle, ()):
        for dest, fid in zip(dests.tolist(), fids.tolist()):
            ivc = dest * net._V + int(net.f_vc[fid])
            if (net.pc_valid[dest] and net.pc_in_vc[dest] == net.f_vc[fid]
                    and net.buf_len[ivc] == 0 and net.ip_st[dest] < net.cycle
                    and bool(net.f_head[fid]) == head):
                yield ivc


def _body_at_idle_front(net):
    for ivc, fid in _fronts(net):
        if net.vc_state[ivc] == 2 and not net.f_head[fid]:
            net.vc_state[ivc] = 0
            return True


def _body_on_inactive_circuit(net):
    for ivc, fid in _fronts(net):
        port = ivc // net._V
        if (net.vc_state[ivc] == 2 and not net.f_head[fid]
                and net.pc_valid[port]
                and net.pc_in_vc[port] == ivc % net._V):
            # Back to waiting for an output VC, and none to be had.
            net.vc_state[ivc] = 1
            base = net.vc_out_opid[ivc] * net._V
            net.cred_free[base:base + net._V] = False
            return True


def _head_on_allocated(net):
    for ivc in _bypass_offers(net, head=True):
        net.vc_state[ivc] = 2
        return True


def _body_arrives_inactive(net):
    for ivc in _bypass_offers(net, head=False):
        net.vc_state[ivc] = 0
        return True


def _buffer_overflow(net):
    for _, dests, fids in net._arr_bucket.get(net.cycle, ()):
        net.buf_len[dests[0] * net._V + net.f_vc[fids[0]]] = net._D
        return True


def _seeded(fault, cycles):
    """The error ``fault`` provokes when seeded after ``cycles`` cycles,
    or None if that cycle does not offer it (or nothing is raised)."""
    topo = make_topology("mesh", 4, 4, 1)
    net = VectorNetwork(topo, NetworkConfig(pseudo=PSEUDO_SB),
                        vc_policy="static")
    traffic = SyntheticTraffic("uniform", topo.num_terminals, 0.5, 5, seed=3)
    for _ in range(cycles):
        traffic.tick(net, net.cycle)
        net.step()
    if not fault(net):
        return None
    try:
        net.step()
    except (ProtocolError, BufferOverflowError) as error:
        return type(error), str(error)
    return None


@pytest.mark.parametrize("fault,message", [
    (_body_at_idle_front, "body flit at the front of an idle VC"),
    (_body_on_inactive_circuit, "body flit on inactive VC"),
    (_head_on_allocated, "head flit arrived on a still-allocated VC"),
    (_body_arrives_inactive, "body flit arrived on an inactive VC"),
    (_buffer_overflow, "flit buffer overflow (capacity 4)"),
], ids=lambda arg: arg.__name__.strip("_") if callable(arg) else "")
def test_seeded_faults_raise_what_the_numpy_phases_raise(fault, message,
                                                         monkeypatch):
    raised = next(((cycles, error) for cycles in range(8, 60)
                   if (error := _seeded(fault, cycles)) is not None), None)
    assert raised is not None, "no cycle offered the fault"
    cycles, error = raised
    assert error[1] == message
    monkeypatch.setenv("CC", "false")
    assert _seeded(fault, cycles) == error


def test_more_arrivals_than_input_ports_never_reach_the_kernel():
    """The staging buffers hold one arrival per input port; a calendar
    that claims more is refused before anything is copied."""
    def flood(net):
        rows = np.zeros(net._NIP + 1, dtype=np.int64)
        net._arr_bucket[net.cycle] = [(rows, rows, rows)]
        return True
    assert _seeded(flood, 8) == (
        ProtocolError, "81 arrivals in one cycle on 80 input ports")


# -- pools --------------------------------------------------------------------

def test_chip_follows_both_pools_as_they_grow(compiled):
    """An overloaded 8x8 outgrows the initial 512 packet slots and 1024
    flits with flits buffered all over the chip; the kernel must read
    and write the reallocated arrays from the next cycle on."""
    nets = {}
    for cls in (Network, VectorNetwork):
        topo = make_topology("mesh", 8, 8, 1)
        net = nets[cls] = cls(topo, NetworkConfig(pseudo=PSEUDO_SB), seed=5)
        net.run(150, SyntheticTraffic("uniform", topo.num_terminals, 0.9, 5,
                                      seed=5))
        net.drain(max_cycles=500_000)
        net.check_invariants()
    net = nets[VectorNetwork]
    assert net.step_kernel == compiled
    assert net._pcap > 512 and net._fcap > 1024
    for name in ("p_hops", "p_pair", "f_pkt", "f_ready", "f_tail"):
        assert getattr(net._kernel.chip, name) == getattr(
            net, name).ctypes.data
        assert getattr(net._kernel.chip, "n_" + name) == len(
            getattr(net, name))
    assert net.stats.fingerprint() == nets[Network].stats.fingerprint()
    assert net.cycle == nets[Network].cycle


# -- loader -------------------------------------------------------------------

def _artifact(cache_home) -> Path:
    """The one artifact a cold ``load()`` into ``cache_home`` builds."""
    (path,) = (Path(cache_home) / "repro" / "kernel").iterdir()
    return path


@pytest.fixture(scope="module")
def reference(_private_kernel_cache):
    """The point every loader case must reproduce, from the session's
    warm cache (module scope: built before any case redirects it)."""
    return _solo()


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty cache no earlier ``load()`` of this process has seen."""
    home = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


def _fake_compiler(tmp_path, body: str) -> str:
    script = tmp_path / "fakecc"
    script.write_text("#!/bin/sh\n"
                      'if [ "$1" = --version ]; then echo fakecc 1.0; exit 0;'
                      " fi\n" + body + "\n")
    script.chmod(0o755)
    return str(script)


def test_an_installed_package_carries_the_source():
    """The step is built on the machine that runs it, so a wheel ships
    ``kernel.c`` as package data, beside the loader."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text("utf-8"))
    data = project["tool"]["setuptools"]["package-data"]
    assert data["repro.network.vectorized"] == ["kernel.c"]
    assert Path(kernel._SOURCE) == Path(kernel.__file__).with_name(
        "kernel.c")
    assert Path(kernel._SOURCE).is_file()


#: ``_solo()`` in an interpreter of its own, answering on stdout.
_RACER = f"""
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.network.config import PSEUDO_SB
point = {dict(_POINT, scheme=None)!r}
point["scheme"] = PSEUDO_SB
r = run_experiment(ExperimentConfig(backend="vectorized", **point),
                   use_cache=False)
print(r.manifest["step_kernel"], r.avg_latency, r.flit_hops)
"""


class TestLoader:
    def _lands_on(self, reason, reference):
        assert reason in kernel.REASONS
        result = _solo()
        assert result.manifest["step_kernel"] == f"numpy:{reason}"
        assert result == reference

    def test_cold_build_is_sealed_and_owner_only(self, cold_cache,
                                                 reference):
        assert _solo().manifest["step_kernel"] == reference.manifest[
            "step_kernel"]
        path = _artifact(cold_cache)
        assert kernel._sealed(str(path))
        assert path.parent.stat().st_mode & 0o777 == 0o700
        # Keyed by what goes into the build, named in the manifest.
        key = hashlib.sha256(b"\0".join((
            Path(kernel._SOURCE).read_bytes(),
            " ".join(kernel.RELEASE_FLAGS).encode(),
            kernel._find_compiler(None)[1]))).hexdigest()
        assert path.name == f"step-{key[:32]}.so"
        assert reference.manifest["step_kernel"] == f"c:{key[:12]}"

    @pytest.mark.parametrize("damage", [
        lambda data: b"not an ELF file at all\n" * 40,
        lambda data: data[:len(data) // 2],
        lambda data: data[:-1],
        lambda data: b"",
    ], ids=["garbage", "truncated", "one-byte-short", "empty"])
    def test_a_damaged_artifact_is_rebuilt_not_loaded(self, damage,
                                                      cold_cache, reference,
                                                      tmp_path,
                                                      monkeypatch):
        _solo()
        path = _artifact(cold_cache)
        good = path.read_bytes()
        # A second cache with the damaged file already in place.
        other = tmp_path / "other"
        monkeypatch.setenv("XDG_CACHE_HOME", str(other))
        target = other / "repro" / "kernel" / path.name
        target.parent.mkdir(parents=True, mode=0o700)
        target.write_bytes(damage(good))
        assert not kernel._sealed(str(target))
        result = _solo()
        assert result.manifest["step_kernel"] == reference.manifest[
            "step_kernel"]
        assert result == reference
        assert kernel._sealed(str(target))
        assert [p.name for p in target.parent.iterdir()] == [path.name]

    def test_no_compiler(self, numpy_step, reference):
        self._lands_on("no-compiler", reference)

    def test_compile_failed_leaves_nothing_behind(self, cold_cache,
                                                  reference, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("CC", _fake_compiler(tmp_path, "exit 1"))
        self._lands_on("compile-failed", reference)
        assert list((cold_cache / "repro" / "kernel").iterdir()) == []

    def test_cache_home_is_a_file(self, cold_cache, reference):
        cold_cache.write_text("in the way")
        self._lands_on("cache-unwritable", reference)

    def test_cache_open_to_others_is_refused(self, cold_cache, reference):
        (cold_cache / "repro" / "kernel").mkdir(parents=True)
        (cold_cache / "repro" / "kernel").chmod(0o755)
        self._lands_on("cache-unwritable", reference)
        assert list((cold_cache / "repro" / "kernel").iterdir()) == []

    def test_sealed_but_unloadable(self, cold_cache, reference, tmp_path,
                                   monkeypatch):
        # A "compiler" whose output is not a shared object: sealed like
        # any artifact, refused by the dynamic loader.
        monkeypatch.setenv("CC", _fake_compiler(
            tmp_path, 'while [ "$1" != -o ]; do shift; done; '
                      'echo "not a shared object" > "$2"'))
        self._lands_on("load-failed", reference)

    def test_wrong_abi_fails_the_self_test(self, cold_cache, reference,
                                           monkeypatch):
        monkeypatch.setattr(kernel, "ABI", kernel.ABI + 1)
        self._lands_on("self-test-failed", reference)

    def test_two_processes_race_a_cold_cache(self, cold_cache, reference):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        racers = [subprocess.Popen([sys.executable, "-c", _RACER], env=env,
                                   stdout=subprocess.PIPE, text=True)
                  for _ in range(2)]
        lines = [racer.communicate(timeout=300)[0].strip()
                 for racer in racers]
        assert [racer.returncode for racer in racers] == [0, 0]
        assert lines[0] == lines[1] == (
            f"{reference.manifest['step_kernel']} {reference.avg_latency} "
            f"{reference.flit_hops}")
        assert kernel._sealed(str(_artifact(cold_cache)))  # and no tmp file
