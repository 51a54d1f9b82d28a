"""Run manifests: hashing, schema, sidecar paths."""

import json

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.instrument import (config_hash, git_sha, manifest_path,
                              run_manifest, write_manifest)
from repro.instrument.provenance import SCHEMA, config_dict


def test_config_dict_accepts_dataclass_and_mapping():
    cfg = ExperimentConfig(pattern="uniform", rate=0.1)
    as_dict = config_dict(cfg)
    assert as_dict["pattern"] == "uniform"
    assert isinstance(as_dict["scheme"], dict)  # nested dataclass unfolds
    assert config_dict({"a": 1}) == {"a": 1}
    with pytest.raises(TypeError):
        config_dict("not a config")


def test_config_hash_is_stable_and_order_insensitive():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
    cfg = ExperimentConfig(pattern="uniform", rate=0.1)
    assert config_hash(cfg) == config_hash(cfg)


def test_config_dict_equals_asdict_and_shares_nothing_mutable():
    from dataclasses import asdict, dataclass, field

    @dataclass(frozen=True)
    class Nested:
        cfg: ExperimentConfig
        tags: tuple = ("a", "b")
        sizes: list = field(default_factory=lambda: [1, [2, 3]])
        extra: dict = field(default_factory=lambda: {"k": (1, 2)})

    nested = Nested(ExperimentConfig(pattern="uniform", rate=0.1))
    plain = config_dict(nested)
    assert plain == asdict(nested)
    assert plain["sizes"] is not nested.sizes
    assert plain["sizes"][1] is not nested.sizes[1]
    assert plain["extra"] is not nested.extra
    # Holds a list, so it is unhashable: hashed per call, never memoized.
    before = config_hash(nested)
    nested.sizes.append(4)
    assert config_hash(nested) != before


def test_config_hash_of_a_mutable_dataclass_follows_its_fields():
    from dataclasses import dataclass

    @dataclass(eq=False)  # hashable by identity, but not frozen
    class Mutable:
        x: int = 1

    cfg = Mutable()
    before = config_hash(cfg)
    assert before == config_hash({"x": 1})
    cfg.x = 2
    assert config_hash(cfg) == config_hash({"x": 2})


def test_manifest_fields():
    manifest = run_manifest({"x": 1}, seed=9, cycles=1000, wall_s=0.5,
                            extra={"note": "t"})
    assert manifest["schema"] == SCHEMA
    assert manifest["config"] == {"x": 1}
    assert manifest["config_sha256"] == config_hash({"x": 1})
    assert manifest["seed"] == 9
    assert manifest["cycles"] == 1000
    assert manifest["wall_s"] == 0.5
    assert manifest["cycles_per_sec"] == 2000.0
    assert manifest["note"] == "t"
    assert manifest["python"] and manifest["platform"]


def test_seed_falls_back_to_config():
    assert run_manifest({"seed": 11})["seed"] == 11
    assert run_manifest({"seed": 11}, seed=4)["seed"] == 4


def test_git_sha_in_checkout():
    sha = git_sha()
    assert sha is None or (len(sha) == 40
                           and all(c in "0123456789abcdef" for c in sha))


def test_manifest_path_and_write(tmp_path):
    out = str(tmp_path / "results.json")
    assert manifest_path(out) == str(tmp_path / "results.manifest.json")
    path = write_manifest(run_manifest({"x": 1}), out)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["config"] == {"x": 1}


def test_run_experiment_attaches_manifest():
    cfg = ExperimentConfig(pattern="uniform", rate=0.05, kx=4, ky=4,
                           synth_cycles=200, synth_warmup=50, seed=13)
    result = run_experiment(cfg, use_cache=False)
    manifest = result.manifest
    assert manifest["config"]["pattern"] == "uniform"
    assert manifest["seed"] == 13
    assert manifest["cycles"] > 0 and manifest["wall_s"] > 0


def test_manifest_excluded_from_result_equality():
    cfg = ExperimentConfig(pattern="uniform", rate=0.05, kx=4, ky=4,
                           synth_cycles=200, synth_warmup=50, seed=13)
    first = run_experiment(cfg, use_cache=False)
    second = run_experiment(cfg, use_cache=False)
    # Wall-clock (and hence the manifests) will differ between the runs;
    # equality must compare by metrics only.
    assert first == second
