"""Buffer bypass (paper Section IV.B), as the router runs it.

A flit arriving on the empty VC of its input's valid circuit, with the
input and the circuit's output free, skips the buffer write: a head must
match the circuit's VC and output, a body or tail its VC alone.
``RuleProbe`` checks every bypass and every buffered arrival on a circuit's
VC over runs of both cores in lockstep
(``tests/network/test_router_rules``); each test asserts its case arose.
"""

from ..network.test_router_rules import (BYPASS, SINGLE_FLIT_BYPASS,
                                         rule_cases)


def test_head_needs_full_match():
    """Heads bypass on VC and route; a head on the circuit's VC wanting
    another output terminates the circuit instead."""
    cases = rule_cases(BYPASS)
    assert cases["bypass_head"] and cases["route_mismatch"]


def test_body_needs_vc_only():
    assert rule_cases(BYPASS)["bypass_body"]


def test_occupied_buffer_blocks_bypass():
    """Bypasses leave the VC empty; arrivals behind buffered flits of the
    circuit's VC are written, in order."""
    assert rule_cases(BYPASS)["arrival_behind_nonempty_vc"]


def test_invalid_circuit_blocks_bypass():
    assert rule_cases(BYPASS)["arrival_on_invalid_circuit"]


def test_single_flit_packet_is_a_head():
    cases = rule_cases(SINGLE_FLIT_BYPASS)
    assert cases["bypass_single_flit"] == cases["bypass_head"] > 0
    assert not cases["bypass_body"]
