"""The backend seam: selection, config plumbing, and refusal paths."""

import dataclasses
import sys

import pytest

from repro.harness.experiment import (ExperimentConfig, build_network,
                                      run_batch_experiments, run_experiment)
from repro.harness.parallel import run_experiments
from repro.network.backend import (BACKENDS, CONCRETE_BACKENDS,
                                   BackendUnsupportedError, calibration,
                                   choose_backend, default_backend,
                                   resolve_backend, set_default_backend)
from repro.network.simulator import Network


@pytest.fixture
def scalar_default():
    """Restore the process default backend after the test."""
    previous = default_backend()
    yield
    set_default_backend(previous)


class TestRegistry:
    def test_resolve_passthrough_and_default(self):
        assert resolve_backend("scalar") == "scalar"
        assert resolve_backend("vectorized") == "vectorized"
        assert resolve_backend(None) == default_backend()

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown network backend"):
            resolve_backend("simd")
        with pytest.raises(ValueError, match="unknown network backend"):
            set_default_backend("simd")

    def test_set_default_round_trip(self, scalar_default):
        previous = set_default_backend("vectorized")
        assert default_backend() == "vectorized"
        assert resolve_backend(None) == "vectorized"
        set_default_backend(previous)
        assert default_backend() == previous


class TestConfigPlumbing:
    def test_backend_resolved_at_construction(self):
        cfg = ExperimentConfig(pattern="uniform")
        assert cfg.backend == "scalar"

    def test_unset_backend_freezes_process_default(self, scalar_default):
        set_default_backend("vectorized")
        cfg = ExperimentConfig(pattern="uniform")
        assert cfg.backend == "vectorized"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown network backend"):
            ExperimentConfig(pattern="uniform", backend="simd")

    def test_backends_never_alias_in_cache_or_store(self):
        from repro.store import store_key
        scalar = ExperimentConfig(pattern="uniform", backend="scalar")
        vector = ExperimentConfig(pattern="uniform", backend="vectorized")
        assert scalar != vector
        assert store_key(scalar) != store_key(vector)


class TestBuildDispatch:
    def test_scalar_build(self):
        cfg = ExperimentConfig(topology="mesh", kx=2, ky=2, concentration=1,
                               pattern="uniform", backend="scalar")
        assert type(build_network(cfg)) is Network

    def test_vectorized_build(self):
        pytest.importorskip("numpy")
        from repro.network.vectorized import VectorNetwork
        cfg = ExperimentConfig(topology="mesh", kx=2, ky=2, concentration=1,
                               routing="xy", pattern="uniform",
                               backend="vectorized")
        assert type(build_network(cfg)) is VectorNetwork


class TestRefusals:
    """Unsupported combinations fail loudly, never silently fall back."""

    def test_per_flit_probe_rejected(self):
        # Only probes *without* the vector_hooks capability are refused
        # now: per-flit event streams (Chrome tracing) genuinely need
        # the scalar core. Vector-aware probes bind fine (see
        # tests/instrument/test_vector_series.py).
        pytest.importorskip("numpy")
        from repro.instrument import FlitTracer
        cfg = ExperimentConfig(topology="mesh", kx=2, ky=2, concentration=1,
                               routing="xy", pattern="uniform",
                               backend="vectorized")
        with pytest.raises(BackendUnsupportedError, match="per-flit"):
            build_network(cfg, probe=FlitTracer())

    def test_checked_run_supported(self):
        # --check no longer pins the scalar core: the vectorized path
        # attaches the array-native invariant checker instead.
        pytest.importorskip("numpy")
        cfg = ExperimentConfig(topology="mesh", kx=4, ky=4, concentration=1,
                               routing="xy", pattern="uniform", rate=0.1,
                               synth_cycles=200, backend="vectorized")
        res = run_experiment(cfg, check=True)
        report = res.monitor_report
        assert report["backend"] == "vectorized"
        assert report["violation_count"] == 0
        assert report["monitors"]["vector_invariants"]["sweeps"] > 0

    def test_multidrop_topology_rejected(self):
        # MECS at 4x4 has true multidrop express channels (2x2 is
        # degenerate: single-hop rows/columns are point-to-point).
        pytest.importorskip("numpy")
        cfg = ExperimentConfig(topology="mecs", kx=4, ky=4, concentration=4,
                               routing="xy", pattern="uniform",
                               backend="vectorized")
        with pytest.raises(BackendUnsupportedError,
                           match="point-to-point"):
            build_network(cfg)

    def test_masks_wider_than_a_word_rejected(self):
        """The kernel keeps a VC, port or output per bit of a 64-bit
        mask and rotates masks by their width: 64 VCs are refused by
        name on both array cores (they used to crash the interpreter),
        ``auto`` answers from the scalar core, and 63 is scalar-equal."""
        pytest.importorskip("numpy")
        point = dict(topology="mesh", kx=3, ky=3, concentration=1,
                     routing="xy", pattern="uniform", rate=0.6,
                     synth_cycles=300)
        widest_word = r"at most 63 VCs.*not 64.*'mesh'"
        with pytest.raises(BackendUnsupportedError, match=widest_word):
            run_experiment(ExperimentConfig(num_vcs=64, backend="vectorized",
                                            **point), use_cache=False)
        with pytest.raises(BackendUnsupportedError, match=widest_word):
            run_batch_experiments(
                [ExperimentConfig(num_vcs=64, backend="auto", seed=seed,
                                  **point) for seed in (1, 2)])
        answered = run_experiment(
            ExperimentConfig(num_vcs=64, backend="auto", **point),
            use_cache=False)
        assert answered.manifest["backend"] == "scalar"
        widest, scalar = (
            run_experiment(ExperimentConfig(num_vcs=63, backend=backend,
                                            **point), use_cache=False)
            for backend in ("vectorized", "scalar"))
        assert widest.manifest["backend"] == "vectorized"
        assert widest == dataclasses.replace(scalar, config=widest.config)

    def test_require_numpy_returns_module_when_available(self):
        numpy = pytest.importorskip("numpy")
        from repro.network.backend import require_numpy
        assert require_numpy() is numpy

    def test_backends_tuple_is_the_public_contract(self):
        assert BACKENDS == ("scalar", "vectorized", "auto")
        assert CONCRETE_BACKENDS == ("scalar", "vectorized", "batched")

    def test_batched_is_no_policy(self, scalar_default):
        with pytest.raises(ValueError, match="unknown network backend"):
            ExperimentConfig(pattern="uniform", backend="batched")
        with pytest.raises(ValueError, match="unknown network backend"):
            set_default_backend("batched")


class TestAutoSelector:
    """``choose_backend`` and ``calibration`` stay for the ``perf/``
    ledger only; neither weighs load."""

    def test_batch_always_picks_batched(self):
        assert choose_backend(terminals=64, rate=0.01, batch=4) == "batched"
        assert choose_backend(terminals=4, rate=None, batch=2) == "batched"

    def test_trace_replay_picks_vectorized(self):
        assert choose_backend(terminals=64, rate=None) == "vectorized"

    def test_offered_load_is_not_weighed(self):
        # 64 terminals: 0.0005 offers 0.032 flits/cycle, 0.30 offers 19.2.
        for rate in (0.0005, 0.00125, 0.02, 0.30):
            for pseudo in (False, True):
                assert choose_backend(terminals=64, rate=rate,
                                      pseudo=pseudo) == "vectorized"

    def test_calibration_names_only_its_source(self):
        assert calibration() == {"source": "default"}


class TestAutoDispatch:
    def test_low_load_builds_vectorized(self):
        pytest.importorskip("numpy")
        from repro.network.vectorized import VectorNetwork
        cfg = ExperimentConfig(topology="mesh", kx=8, ky=8, concentration=1,
                               routing="xy", pattern="uniform", rate=0.001,
                               backend="auto")
        assert type(build_network(cfg)) is VectorNetwork

    def test_trace_replay_builds_vectorized(self):
        pytest.importorskip("numpy")
        from repro.network.vectorized import VectorNetwork
        cfg = ExperimentConfig(benchmark="radix", backend="auto")
        assert type(build_network(cfg)) is VectorNetwork

    def test_high_load_builds_vectorized(self):
        pytest.importorskip("numpy")
        from repro.network.vectorized import VectorNetwork
        cfg = ExperimentConfig(topology="mesh", kx=8, ky=8, concentration=1,
                               routing="xy", pattern="uniform", rate=0.30,
                               backend="auto")
        assert type(build_network(cfg)) is VectorNetwork

    def test_refused_config_falls_back_to_scalar(self):
        # MECS has multidrop channels the vectorized core refuses;
        # auto's documented policy is to fall back to scalar there —
        # the explicit backend (TestRefusals) still fails loudly.
        pytest.importorskip("numpy")
        cfg = ExperimentConfig(topology="mecs", kx=4, ky=4, concentration=4,
                               routing="xy", pattern="uniform", rate=0.30,
                               backend="auto")
        assert type(build_network(cfg)) is Network

    def test_a_process_without_numpy_answers_from_scalar(self,
                                                          monkeypatch):
        """No numpy is a refusal like no compiler: a solo ``auto`` point
        and a grouped ``auto`` unit (which refuses and reruns solo) run
        on the scalar core and name numpy under ``refused``; an explicit
        ``vectorized`` raises the ImportError."""
        # A shape no idle network holds: an idle array chip would be
        # reset, not built, and so never ask for numpy.
        point = dict(topology="mesh", kx=5, ky=3, concentration=1,
                     routing="xy", pattern="uniform", rate=0.3,
                     synth_cycles=100, synth_warmup=20)
        monkeypatch.setitem(sys.modules, "numpy", None)
        solo = run_experiment(ExperimentConfig(backend="auto", **point),
                              use_cache=False)
        unit = run_experiments(
            [ExperimentConfig(backend="auto", seed=seed, **point)
             for seed in (2, 3)], max_workers=1, batch_size=2)
        for result in (solo, *unit):
            assert result.manifest["backend"] == "scalar"
            assert "numpy" in result.manifest["refused"]
        with pytest.raises(ImportError, match="numpy"):
            run_experiment(ExperimentConfig(backend="vectorized", **point),
                           use_cache=False)
        scalar = run_experiment(ExperimentConfig(backend="scalar", **point),
                                use_cache=False)
        assert solo == dataclasses.replace(scalar, config=solo.config)

    def test_auto_kept_in_store_key(self):
        from repro.store import store_key
        auto = ExperimentConfig(pattern="uniform", backend="auto")
        assert auto.backend == "auto"
        assert store_key(auto) != store_key(
            ExperimentConfig(pattern="uniform", backend="scalar"))
