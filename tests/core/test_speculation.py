"""Unit tests for pseudo-circuit speculation logic."""

from repro.core.pseudo_circuit import PseudoCircuitRegister
from repro.core.speculation import OutputHistory, try_restore


def regs(n=4):
    return [PseudoCircuitRegister() for _ in range(n)]


def test_history_records_last_termination():
    h = OutputHistory()
    assert h.last_input == -1
    h.record_termination(2)
    h.record_termination(3)
    assert h.last_input == 3
    h.reset()
    assert h.last_input == -1


def test_single_candidate_restored():
    registers = regs()
    registers[1].establish(0, 5)
    registers[1].invalidate()
    restored = try_restore(5, OutputHistory(), registers,
                           output_is_free=True, credits_available=True)
    assert restored == 1
    assert registers[1].valid


def test_history_breaks_ties():
    registers = regs()
    for i in (0, 2):
        registers[i].establish(0, 5)
        registers[i].invalidate()
    history = OutputHistory()
    history.record_termination(2)
    assert try_restore(5, history, registers, True, True) == 2
    assert registers[2].valid and not registers[0].valid


def test_tie_without_history_restores_nothing():
    registers = regs()
    for i in (0, 2):
        registers[i].establish(0, 5)
        registers[i].invalidate()
    history = OutputHistory()
    history.record_termination(3)  # register 3 points elsewhere
    assert try_restore(5, history, registers, True, True) is None


def test_no_restore_when_output_busy_or_congested():
    registers = regs()
    registers[1].establish(0, 5)
    registers[1].invalidate()
    assert try_restore(5, OutputHistory(), registers,
                       output_is_free=False, credits_available=True) is None
    assert try_restore(5, OutputHistory(), registers,
                       output_is_free=True, credits_available=False) is None


def test_valid_registers_are_not_candidates():
    registers = regs()
    registers[1].establish(0, 5)  # still valid: busy with its own circuit
    assert try_restore(5, OutputHistory(), registers, True, True) is None


def test_never_established_registers_ignored():
    assert try_restore(0, OutputHistory(), regs(), True, True) is None
