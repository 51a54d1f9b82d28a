"""Exactness tests for the result payload round trip.

The store's whole value proposition — warm-cache figure runs and
bit-identical sweep resume — reduces to ``payload_to_result`` rebuilding
the exact ``Result`` that ``result_to_payload`` serialized, including a
full JSON dump/load in between (the on-disk representation).
"""

import json

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.network.config import ALL_SCHEMES
from repro.store import (code_version, key_from_hash, payload_to_config,
                         payload_to_result, result_to_payload, store_key)


def _config(**overrides):
    base = dict(topology="mesh", kx=2, ky=2, concentration=1, routing="xy",
                pattern="uniform", rate=0.05, synth_cycles=120,
                synth_warmup=20, seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestResultRoundTrip:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES,
                             ids=[s.label for s in ALL_SCHEMES])
    def test_bit_identical_through_json(self, scheme):
        result = run_experiment(_config().with_scheme(scheme))
        payload = json.loads(json.dumps(result_to_payload(result),
                                        default=str))
        rebuilt = payload_to_result(payload)
        assert rebuilt == result  # frozen dataclass: field equality
        assert rebuilt.config == result.config
        assert rebuilt.energy_breakdown == result.energy_breakdown

    def test_manifest_rides_along_but_monitor_report_is_dropped(self):
        result = run_experiment(_config(seed=12), check=True)
        assert result.monitor_report is not None
        payload = result_to_payload(result)
        assert "monitor_report" not in payload
        rebuilt = payload_to_result(payload)
        assert rebuilt.monitor_report is None
        assert rebuilt.manifest == result.manifest

    def test_unknown_schema_is_rejected(self):
        result = run_experiment(_config(seed=13))
        payload = result_to_payload(result)
        payload["schema"] = "repro.result-payload/999"
        with pytest.raises(ValueError, match="schema"):
            payload_to_result(payload)

    def test_config_round_trip_preserves_scheme_object(self):
        cfg = _config(seed=14)
        payload = json.loads(json.dumps(result_to_payload(
            run_experiment(cfg))))
        assert payload_to_config(payload["config"]) == cfg


    def test_config_payload_is_the_pinned_literal(self):
        """The stored form of a config, byte for byte: what
        ``dataclasses.asdict`` produced before ``config_to_payload``
        stopped paying its per-leaf deepcopy."""
        import dataclasses

        from repro.network.config import PSEUDO_SB
        from repro.store import canonical_json, config_to_payload
        cfg = ExperimentConfig(
            topology="mesh", kx=4, ky=4, concentration=1, routing="xy",
            vc_policy="static", scheme=PSEUDO_SB, pattern="uniform",
            rate=0.05, synth_cycles=100, synth_warmup=20, seed=11,
            backend="scalar")
        payload = config_to_payload(cfg)
        assert canonical_json(payload) == (
            '{"backend":"scalar","benchmark":null,"buffer_depth":4,'
            '"chiplet_link_latency":4,"chiplets":4,"concentration":1,'
            '"kx":4,"ky":4,"mshrs":4,"num_vcs":4,"packet_size":5,'
            '"pattern":"uniform","rate":0.05,"routing":"xy",'
            '"scheme":{"buffer_bypass":true,"enabled":true,'
            '"speculation":true},"seed":11,"synth_cycles":100,'
            '"synth_warmup":20,"topology":"mesh","trace_cycles":2000,'
            '"trace_warmup":400,"vc_policy":"static"}')
        assert payload == dataclasses.asdict(cfg)
        assert list(payload) == list(dataclasses.asdict(cfg))  # key order
        payload["scheme"]["enabled"] = False  # shares nothing with cfg
        assert cfg.scheme.enabled


class TestKeyDerivation:
    def test_key_differs_by_seed(self):
        assert store_key(_config(seed=1)) != store_key(_config(seed=2))

    def test_key_differs_by_any_config_field(self):
        assert store_key(_config(rate=0.05)) != store_key(_config(rate=0.10))

    def test_key_is_stable_for_equal_configs(self):
        assert store_key(_config()) == store_key(_config())

    def test_code_version_salt_invalidates_keys(self, monkeypatch):
        before = store_key(_config())
        monkeypatch.setenv("REPRO_STORE_SALT", "pc-sim-test-salt")
        assert code_version() == "pc-sim-test-salt"
        assert store_key(_config()) != before

    def test_pinned_config_keeps_its_pre_memo_key(self, monkeypatch):
        # Literal hex from the commit before config_hash stopped going
        # through dataclasses.asdict: warm stores must stay addressable.
        from repro.instrument import config_hash
        from repro.network.config import PSEUDO_SB
        monkeypatch.delenv("REPRO_STORE_SALT", raising=False)
        synthetic = ExperimentConfig(
            topology="mesh", kx=4, ky=4, concentration=1, routing="xy",
            vc_policy="static", scheme=PSEUDO_SB, pattern="uniform",
            rate=0.05, synth_cycles=100, synth_warmup=20, seed=11,
            backend="scalar")
        assert config_hash(synthetic) == (
            "83af9904c59720fbff2dcb79d899c6e78bf6e6d7fe653f769d2e81c490acc9b7")
        assert store_key(synthetic) == (
            "d60e2193e4691242cc70997b2640ae8d6a9f28367f9de87afdfe820bb74409a6")
        trace = ExperimentConfig(topology="cmesh", benchmark="fma3d",
                                 seed=3, backend="auto")
        assert store_key(trace) == (
            "fd4b6a619c04a74679188d24b38acad21f89015f4a9b4a2564bdfbbfd1ae6c09")
        # The config hash is memoized; the salt must not be.
        monkeypatch.setenv("REPRO_STORE_SALT", "pinned-salt")
        assert store_key(synthetic) == (
            "b3cd74b4af25781a70d09e74d3727a97a1daba5a239d26f78244d80ccaa661f8")

    def test_salt_change_after_the_memo_is_warm_is_followed(self,
                                                            monkeypatch):
        cfg = _config(seed=31)
        monkeypatch.delenv("REPRO_STORE_SALT", raising=False)
        unsalted = store_key(cfg)
        assert store_key(cfg) == unsalted  # second call: memo hit
        monkeypatch.setenv("REPRO_STORE_SALT", "salt-a")
        salted = store_key(cfg)
        assert salted != unsalted
        assert salted == store_key(_config(seed=31))  # equal, not same
        monkeypatch.delenv("REPRO_STORE_SALT")
        assert store_key(cfg) == unsalted

    def test_dict_and_dataclass_forms_of_a_config_share_a_key(self):
        from dataclasses import asdict
        cfg = _config(seed=32)
        assert store_key(asdict(cfg)) == store_key(cfg)
        # Dicts are unhashable: never memoized, so edits are seen.
        doc = asdict(cfg)
        before = store_key(doc)
        doc["rate"] = 0.07
        assert store_key(doc) != before
        assert store_key(doc) == store_key(_config(seed=32, rate=0.07))

    def test_key_from_hash_matches_documented_definition(self):
        import hashlib
        key = key_from_hash("abc123", 7)
        text = f"abc123:{code_version()}:7"
        assert key == hashlib.sha256(text.encode()).hexdigest()
