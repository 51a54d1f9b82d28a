"""Unit tests for network and pseudo-circuit configuration."""

import pytest

from repro.network.config import (ALL_SCHEMES, BASELINE, PC_SCHEMES, PSEUDO,
                                  PSEUDO_B, PSEUDO_S, PSEUDO_SB,
                                  NetworkConfig, PseudoCircuitConfig)


class TestPseudoCircuitConfig:
    def test_labels(self):
        assert BASELINE.label == "Baseline"
        assert PSEUDO.label == "Pseudo"
        assert PSEUDO_S.label == "Pseudo+S"
        assert PSEUDO_B.label == "Pseudo+B"
        assert PSEUDO_SB.label == "Pseudo+S+B"

    def test_aggressive_schemes_require_base(self):
        with pytest.raises(ValueError):
            PseudoCircuitConfig(enabled=False, speculation=True)
        with pytest.raises(ValueError):
            PseudoCircuitConfig(enabled=False, buffer_bypass=True)

    def test_scheme_tuples(self):
        assert ALL_SCHEMES[0] is BASELINE
        assert len(ALL_SCHEMES) == 5
        assert len(PC_SCHEMES) == 4
        assert all(s.enabled for s in PC_SCHEMES)

    def test_frozen_and_hashable(self):
        assert hash(PSEUDO_SB) == hash(PseudoCircuitConfig(
            enabled=True, speculation=True, buffer_bypass=True))


class TestNetworkConfig:
    def test_paper_defaults(self):
        cfg = NetworkConfig()
        assert cfg.num_vcs == 4
        assert cfg.buffer_depth == 4
        assert not cfg.pseudo.enabled

    @pytest.mark.parametrize("field,value", [
        ("num_vcs", 0), ("buffer_depth", 0), ("credit_delay", -1)])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            NetworkConfig(**{field: value})

    def test_scheme_embedding(self):
        cfg = NetworkConfig(pseudo=PSEUDO_SB)
        assert cfg.pseudo.buffer_bypass
