"""InvariantViolation: structured context, rendering, pickling."""

import pickle

from repro.core.violation import InvariantViolation
from repro.network.credits import CreditError, credit_error
from repro.network.ports import OutVC


class TestStructure:
    def test_carries_full_context(self):
        err = InvariantViolation(
            "credit_conservation", "counter out of sync",
            monitor="credits", cycle=42, router=3, port=1, vc=2,
            expected=4, actual=3)
        assert err.rule == "credit_conservation"
        assert (err.cycle, err.router, err.port, err.vc) == (42, 3, 1, 2)
        assert (err.expected, err.actual) == (4, 3)
        assert isinstance(err, RuntimeError)

    def test_str_renders_rule_and_context(self):
        err = InvariantViolation("flit_order", "out of order",
                                 monitor="conservation", cycle=7,
                                 router=0, port=2, vc=1)
        text = str(err)
        assert "conservation:flit_order" in text
        assert "cycle=7" in text and "router=0" in text

    def test_to_dict_round_trips_every_field(self):
        err = InvariantViolation("deadlock", "stuck", monitor="watchdog",
                                 cycle=9, expected=0, actual=3)
        d = err.to_dict()
        assert d["rule"] == "deadlock" and d["monitor"] == "watchdog"
        assert d["cycle"] == 9 and d["actual"] == 3

    def test_pickle_round_trip(self):
        """Violations must survive the sweep workers' pickle boundary."""
        err = InvariantViolation("credit_underflow", "boom",
                                 monitor="credits", cycle=5, router=1,
                                 port=2, vc=3, expected=">= 1", actual=0)
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is InvariantViolation
        assert clone.to_dict() == err.to_dict()
        assert str(clone) == str(err)


class TestCreditErrorLineage:
    def test_credit_error_is_a_structured_violation(self):
        ovc = OutVC(2, where=(4, 1, 0))
        ovc.credits = 0
        err = credit_error(ovc, cycle=12)
        assert isinstance(err, InvariantViolation)
        assert isinstance(err, CreditError)
        assert err.rule == "credit_underflow"
        assert (err.cycle, err.router, err.port, err.vc) == (12, 4, 1, 0)
        assert err.actual == 0

    def test_credit_error_pickles_as_its_subclass(self):
        err = credit_error(OutVC(1, where=(0, 0, 0)), cycle=3)
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is CreditError
        assert clone.rule == "credit_overflow"
