"""The pseudo-circuit register and comparator, as the router runs them.

The register is a plain record; a traversal latches it, a termination
clears its valid bit, a restoration sets it again. ``RuleProbe`` checks
each of these events, and every SA-skipping traversal's comparator match,
over runs of both cores in lockstep (``tests/network/test_router_rules``);
each test asserts its case arose.
"""

from repro.core.pseudo_circuit import PseudoCircuitRegister, Termination
from repro.network.config import PSEUDO

from ..network.test_router_rules import (SPECULATION, rule_cases,
                                         scheme_run)


class TestRegister:
    def test_initially_invalid(self):
        reg = PseudoCircuitRegister()
        assert not reg.valid
        assert reg.in_vc == -1 and reg.out_port == -1

    def test_establish(self):
        """Every traversal latches its input's register and output."""
        cases = rule_cases(scheme_run(PSEUDO))
        assert cases["established"] == cases["traversed"] > 0

    def test_invalidate_keeps_contents(self):
        cases = rule_cases(SPECULATION)
        assert sum(cases[reason.value] for reason in Termination) > 0

    def test_restore_revalidates(self):
        cases = rule_cases(SPECULATION)
        assert cases["restore_single"] + cases["restore_by_history"] > 0

    def test_restore_requires_history(self):
        """A restoration revalidates exactly what the input's last
        traversal latched."""
        assert rule_cases(SPECULATION)["restore_single"]

    def test_reestablish_overwrites(self):
        cases = rule_cases(SPECULATION)
        assert cases["register_overwritten"] and cases["conflict_input"]


class TestComparator:
    def test_head_match_needs_vc_and_route(self):
        cases = rule_cases(scheme_run(PSEUDO))
        assert cases["reuse_head"] and cases["route_mismatch"]

    def test_body_match_needs_vc_only(self):
        assert rule_cases(scheme_run(PSEUDO))["reuse_body"]

    def test_route_conflict_detection(self):
        """A head on the circuit's VC wanting another output terminates
        the circuit, which keeps naming the old output."""
        assert rule_cases(scheme_run(PSEUDO))["route_mismatch"]


def test_termination_reasons_enumerated():
    names = {t.value for t in Termination}
    assert {"conflict_output", "conflict_input", "route_mismatch",
            "no_credit"} <= names
