"""The per-process chip plan and the hash-once point keys.

A chip (topology + routing instance + compiled tables) is built once per
shape and shared by every later network on it, on all three cores; a
point's store key is hashed once per sweep. Both are pure reuse: nothing
a simulation reports may depend on whether its chip was already built,
and nothing a sweep stores may depend on who computed the key.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.harness import experiment
from repro.harness.experiment import (ExperimentConfig, Result,
                                      backend_decision, build_network,
                                      chip_plan, clear_cache,
                                      run_batch_experiments, run_experiment)
from repro.harness.parallel import run_experiments
from repro.network.config import BASELINE, PSEUDO_SB, NetworkConfig
from repro.routing import compile_routing
from repro.store import ResultStore, result_store
from repro.topology import TOPOLOGY_REGISTRY
from repro.traffic.synthetic import SyntheticTraffic

plan_memo = experiment._chip_plan

CORES = ("scalar", "vectorized", "batched")


def _point(topology="mesh", k=4, routing="xy", rate=0.05, cycles=120,
           **overrides):
    fields = dict(
        topology=topology, kx=k, ky=k, concentration=1, routing=routing,
        vc_policy="static", scheme=PSEUDO_SB, pattern="uniform", rate=rate,
        synth_cycles=cycles, synth_warmup=cycles // 5, seed=5)
    return ExperimentConfig(**{**fields, **overrides})


MESH4_XY = _point()
MESH8_XY = _point(k=8, cycles=80)
MESH4_O1 = _point(routing="o1turn", vc_policy="dynamic")
CHIPLET = _point("chiplet", k=2, routing="weighted", chiplets=2)
SHAPES = {"mesh4-xy": MESH4_XY, "mesh8-xy": MESH8_XY,
          "mesh4-o1turn": MESH4_O1, "chiplet-weighted": CHIPLET}


def _traffic(cfg, num_terminals, seed):
    return SyntheticTraffic(cfg.pattern, num_terminals, cfg.rate,
                            cfg.packet_size, seed=seed)


def _simulate(cfg, core):
    """One run of ``cfg`` on ``core``: (Result, stats fingerprint)."""
    if core != "scalar":
        pytest.importorskip("numpy")
    if core == "batched":
        from repro.network.vectorized import BatchNetwork
        # Two lanes of one BatchNetwork on the planned chip; lane 0 is
        # the point itself (what run_batch_experiments builds).
        topo, routing = chip_plan(cfg)
        seeds = [cfg.seed, cfg.seed + 1]
        net = BatchNetwork(
            topo, NetworkConfig(num_vcs=cfg.num_vcs,
                                buffer_depth=cfg.buffer_depth,
                                pseudo=cfg.scheme, mshrs=0),
            routing=routing, vc_policy=cfg.vc_policy, seeds=seeds)
        net.run_batch([_traffic(cfg, topo.num_terminals, s) for s in seeds],
                      [cfg.synth_cycles] * 2, [cfg.synth_warmup] * 2)
        stats = None
    else:
        net = build_network(replace(cfg, backend=core))
        net.stats.warmup_cycles = cfg.synth_warmup
        net.run(cfg.synth_cycles,
                _traffic(cfg, net.topology.num_terminals, cfg.seed))
        stats = net.stats
    net.drain(max_cycles=500_000)
    net.check_invariants()
    if stats is None:
        stats = net.lane_stats(0)
    return Result.from_stats(cfg, stats), stats.fingerprint()


@pytest.fixture(autouse=True)
def cold_plan():
    """Every test starts, and leaves the process, with no planned chip."""
    plan_memo.cache_clear()
    yield
    plan_memo.cache_clear()


class TestWarmChipEqualsColdBuild:
    @pytest.mark.parametrize("core", CORES)
    def test_repeated_and_interleaved_shapes(self, core):
        cold = {}
        for name, cfg in SHAPES.items():
            plan_memo.cache_clear()
            cold[name] = _simulate(cfg, core)
        plan_memo.cache_clear()
        order = ["mesh4-xy", "mesh4-xy", "mesh8-xy", "mesh4-o1turn",
                 "mesh4-xy", "chiplet-weighted", "mesh8-xy",
                 "chiplet-weighted", "mesh4-o1turn"]
        for name in order:
            assert _simulate(SHAPES[name], core) == cold[name], name
        info = plan_memo.cache_info()
        assert (info.misses, info.hits) == (len(SHAPES),
                                            len(order) - len(SHAPES))

    def test_cores_share_one_chip_and_one_table(self):
        pytest.importorskip("numpy")
        nets = [build_network(replace(MESH4_O1, backend=core))
                for core in ("scalar", "vectorized", "scalar")]
        assert len({id(net.topology) for net in nets}) == 1
        assert len({id(net.routing) for net in nets}) == 1
        assert len({id(net.compiled_routing) for net in nets}) == 1
        # num_vcs is not a shape field: same chip, its own table.
        wider = build_network(replace(MESH4_O1, num_vcs=8))
        assert wider.routing is nets[0].routing
        assert wider.compiled_routing is not nets[0].compiled_routing

    def test_harness_entry_points_agree_with_a_cold_process(self):
        pytest.importorskip("numpy")
        cfgs = [replace(MESH4_XY, backend="batched", seed=s, rate=r)
                for s, r in ((5, 0.05), (6, 0.08))]
        cold_batch = run_batch_experiments(cfgs)
        plan_memo.cache_clear()
        cold_solo = [run_experiment(replace(cfg, backend="scalar"),
                                    use_cache=False) for cfg in cfgs[:1]]
        warm_batch = run_batch_experiments(cfgs)
        warm_solo = [run_experiment(replace(cfg, backend="scalar"),
                                    use_cache=False) for cfg in cfgs[:1]]
        assert warm_batch == cold_batch
        assert warm_solo == cold_solo

    def test_clear_cache_is_the_result_memo_only(self):
        chip = chip_plan(MESH4_XY)
        run_experiment(MESH4_XY)
        assert experiment.memo_hit(MESH4_XY) is not None
        clear_cache()
        assert experiment.memo_hit(MESH4_XY) is None
        assert chip_plan(MESH4_XY) is chip


def _digest(compiled, arrays: bool) -> str:
    sha = hashlib.sha256(repr((compiled.tables,
                               compiled.vc_ranges)).encode())
    if arrays:
        for array in compiled.as_arrays():
            sha.update(array.tobytes())
    return sha.hexdigest()


class TestSharedTableIsImmutable:
    @pytest.mark.parametrize("core", CORES)
    def test_digest_survives_a_saturation_run(self, core):
        cfg = replace(MESH4_O1, rate=0.6, synth_cycles=150, scheme=BASELINE)
        topo, routing = chip_plan(cfg)
        compiled = compile_routing(routing, topo, cfg.num_vcs)
        arrays = core != "scalar"  # the numpy export the vector cores read
        if arrays:
            pytest.importorskip("numpy")
        before = _digest(compiled, arrays)
        result, _ = _simulate(cfg, core)
        assert result.packets > 0
        assert compile_routing(routing, topo, cfg.num_vcs) is compiled
        assert _digest(compiled, arrays) == before

    def test_rows_and_arrays_reject_writes(self):
        topo, routing = chip_plan(MESH4_XY)
        compiled = compile_routing(routing, topo, 4)
        row = compiled.tables[0][0]
        with pytest.raises(TypeError):
            row[0] = (0, 0, 0, 4)
        with pytest.raises(TypeError):
            compiled.tables[0][0] = ()
        pytest.importorskip("numpy")
        for array in compiled.as_arrays():
            with pytest.raises(ValueError):
                array[0, 0, 0] = 1

    def test_equal_entries_are_one_object(self):
        topo, routing = chip_plan(MESH8_XY)
        tables = compile_routing(routing, topo, 4).tables
        entries = [e for router in tables for row in router for e in row]
        assert len({id(e) for e in entries}) == len(set(entries))
        assert len(set(entries)) < 64 < len(entries)


class TestPlanCacheIsBounded:
    def test_an_evicted_shape_rebuilds_to_an_equal_table(self):
        limit = plan_memo.cache_info().maxsize
        assert limit is not None and limit <= 16
        first = _point(k=2)
        before = _simulate(first, "scalar")
        topo, routing = chip_plan(first)
        tables = compile_routing(routing, topo, 4).tables
        for k in range(3, 3 + limit):  # `limit` other shapes: first is out
            chip_plan(_point(k=k))
        assert plan_memo.cache_info().currsize == limit
        topo_again, routing_again = chip_plan(first)
        assert routing_again is not routing
        again = compile_routing(routing_again, topo_again, 4)
        assert again.tables == tables
        assert _simulate(first, "scalar") == before


class TestBackendDecisionReadsThePlan:
    @pytest.mark.parametrize("name", sorted(TOPOLOGY_REGISTRY))
    def test_terminals_match_the_built_network(self, name):
        cfg = _point(name, k=3, routing=TOPOLOGY_REGISTRY[name].routings[0],
                     concentration=2, chiplets=3, backend="auto")
        decision = backend_decision(cfg)
        net = build_network(replace(cfg, backend="scalar"))
        assert decision["terminals"] == net.topology.num_terminals
        assert decision["offered_flits_per_cycle"] == round(
            cfg.rate * net.topology.num_terminals, 3)


class TestEachPointIsHashedOnce:
    @pytest.fixture
    def hashed(self, monkeypatch):
        """Configs handed to ``config_hash`` by ``store_key``, in order."""
        seen = []
        real = result_store.config_hash

        def counting(config):
            seen.append(config)
            return real(config)

        monkeypatch.setattr(result_store, "config_hash", counting)
        return seen

    def _points(self):
        return [replace(MESH4_XY, seed=seed, synth_cycles=60,
                        synth_warmup=10) for seed in range(40, 46)]

    def test_warm_store_sweep(self, tmp_path, hashed):
        points = self._points()
        cold = run_experiments(points, max_workers=1,
                               store=ResultStore(tmp_path / "store"))
        clear_cache()
        del hashed[:]
        store = ResultStore(tmp_path / "store")
        warm = run_experiments(points, max_workers=1, store=store,
                               journal=tmp_path / "warm.jsonl")
        assert warm == cold
        assert store.stats["hits"] == len(points)
        assert hashed == points

    def test_resumed_sweep(self, tmp_path, hashed):
        points = self._points()
        journal = tmp_path / "sweep.jsonl"
        cold = run_experiments(points, max_workers=1, journal=journal)
        clear_cache()
        del hashed[:]
        store = ResultStore(tmp_path / "store")
        resumed = run_experiments(points, max_workers=1, journal=journal,
                                  resume=True, store=store)
        assert resumed == cold
        assert store.stats["puts"] == len(points)  # written through
        assert hashed == points
