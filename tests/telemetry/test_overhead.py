"""The zero-cost contract: telemetry off must mean the off emitter.

``telemetry_cold_check`` is the bench-gate hook; here it runs directly,
plus direct assertions that the off path holds the off emitter and that
the ``run_experiments`` default stays off.
"""

import inspect

import pytest

from repro.harness import parallel
from repro.harness.experiment import ExperimentConfig, clear_cache
from repro.instrument.overhead import OverheadGateError, telemetry_cold_check
from repro.telemetry.spans import OFF


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestColdCheck:
    def test_gate_passes(self):
        verdict = telemetry_cold_check()
        assert verdict["default_off"]
        assert verdict["scheduler_null"]
        assert verdict["results_identical"]
        # The stream holds the point spans plus lifecycle records.
        assert verdict["stream_records"] >= verdict["points"] + 2

    def test_default_is_off(self):
        params = inspect.signature(parallel.run_experiments).parameters
        assert params["telemetry"].default is None

    def test_scheduler_holds_no_emitter_by_default(self):
        cfg = ExperimentConfig(topology="mesh", kx=2, ky=2,
                               concentration=1, routing="xy",
                               pattern="uniform", rate=0.05,
                               synth_cycles=50, synth_warmup=10, seed=1)
        scheduler = parallel._Scheduler(
            [cfg], check=False, store=None, journal=None, resume=False,
            max_attempts=1, backoff_base=0.5, timeout=None,
            sleep=lambda s: None)
        assert scheduler.tel is OFF
        assert OFF.writer is None and OFF.spec is None

    def test_gate_error_is_the_shared_gate_type(self):
        # The bench gate treats telemetry violations exactly like probe
        # overhead violations: same exception family, same hard failure.
        assert issubclass(OverheadGateError, AssertionError)
