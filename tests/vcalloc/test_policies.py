"""Unit tests for VC allocation policies."""

import pytest

from repro.network.flit import Packet
from repro.network.ports import OutVC
from repro.vcalloc import (DynamicVCAllocation, StaticVCAllocation,
                           make_vc_policy)


def ovcs(n=4, depth=4):
    return [OutVC(depth) for _ in range(n)]


def pkt(dst=5):
    return Packet(0, dst, 1, 0)


class TestDynamic:
    def test_prefers_most_credits(self):
        states = ovcs()
        states[0].credits -= 1
        states[2].credits -= 2
        assert DynamicVCAllocation().allocate(states, pkt(), 0, 4) == 1

    def test_skips_owned_vcs(self):
        states = ovcs()
        states[0].owner = (1, 1)
        states[1].owner = (1, 2)
        assert DynamicVCAllocation().allocate(states, pkt(), 0, 4) == 2

    def test_none_when_all_owned(self):
        states = ovcs()
        for s in states:
            s.owner = (0, 0)
        assert DynamicVCAllocation().allocate(states, pkt(), 0, 4) is None

    def test_respects_class_range(self):
        states = ovcs()
        assert DynamicVCAllocation().allocate(states, pkt(), 2, 4) == 2

    def test_bad_range_raises(self):
        with pytest.raises(ValueError):
            DynamicVCAllocation().allocate(ovcs(), pkt(), 3, 2)


class TestStatic:
    def test_designated_vc_is_destination_hash(self):
        assert StaticVCAllocation().allocate(ovcs(), pkt(dst=5), 0, 4) == 1
        assert StaticVCAllocation().allocate(ovcs(), pkt(dst=7), 0, 4) == 3

    def test_waits_for_designated_vc(self):
        states = ovcs()
        states[1].owner = (0, 0)
        assert StaticVCAllocation().allocate(states, pkt(dst=5), 0, 4) is None

    def test_class_range_offsets_hash(self):
        # Within class [2,4): vc = 2 + dst % 2.
        assert StaticVCAllocation().allocate(ovcs(), pkt(dst=5), 2, 4) == 3

    def test_ejection_falls_back_to_any_free(self):
        states = ovcs()
        states[1].owner = (0, 0)  # designated VC for dst=5 is busy
        got = StaticVCAllocation().allocate(states, pkt(dst=5), 0, 4,
                                            ejection=True)
        assert got == 0

    def test_designated_vc_helper(self):
        assert StaticVCAllocation.designated_vc(10, 0, 4) == 2
        assert StaticVCAllocation.designated_vc(10, 2, 4) == 2


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_vc_policy("dynamic"), DynamicVCAllocation)
        assert isinstance(make_vc_policy("static"), StaticVCAllocation)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_vc_policy("adaptive")
