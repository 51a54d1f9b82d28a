"""Unit and property tests for the round-robin rotation rule."""

import pytest
from hypothesis import given, strategies as st

from repro.network.arbiters import round_robin


class Arbiter:
    """One arbiter as the router keeps it: a pointer over ``size``
    requesters, moved past every grant."""

    def __init__(self, size):
        self.size = size
        self.next = 0

    def grant(self, requests):
        mask = 0
        for r in requests:
            mask |= 1 << r
        granted = round_robin(mask, self.next, self.size)
        if granted is not None:
            self.next = granted + 1 if granted + 1 < self.size else 0
        return granted


class TestRoundRobin:
    def test_empty_requests(self):
        assert Arbiter(4).grant([]) is None

    def test_single_request(self):
        arb = Arbiter(4)
        assert arb.grant([2]) == 2

    def test_rotation(self):
        arb = Arbiter(3)
        grants = [arb.grant([0, 1, 2]) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_skips_non_requesters(self):
        arb = Arbiter(4)
        assert arb.grant([3]) == 3
        # Priority moved past 3 -> wraps to 0.
        assert arb.grant([0, 3]) == 0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            Arbiter(2).grant([5])

    def test_no_starvation_under_persistent_requests(self):
        arb = Arbiter(5)
        granted = set()
        for _ in range(5):
            granted.add(arb.grant([0, 2, 4]))
        assert granted == {0, 2, 4}


@given(st.lists(st.sets(st.integers(0, 7), min_size=1), min_size=1,
                max_size=50))
def test_grant_is_always_a_requester(request_seq):
    """Property: every grant is one of the requests, for any sequence."""
    arb = Arbiter(8)
    for requests in request_seq:
        grant = arb.grant(requests)
        assert grant in requests


@given(st.sets(st.integers(0, 5), min_size=2, max_size=6))
def test_persistent_requesters_are_all_served(requests):
    """Property: under persistent requests, round-robin serves everyone
    within len(requests) grants (starvation freedom)."""
    arb = Arbiter(6)
    served = {arb.grant(requests) for _ in range(len(requests))}
    assert served == set(requests)
