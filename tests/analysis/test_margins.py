"""Customer-code margin extrapolation tests."""

import pytest

from repro.analysis.margins import customer_margin_line
from repro.engine import SimulationSession
from repro.errors import ExperimentError
from repro.machine.runner import RunOptions
from repro.machine.workload import CurrentProgram, SyncSpec
from repro.measure.vmin import vmin_experiment


def max_mark(sync=True):
    return CurrentProgram(
        "m", i_low=14.0, i_high=34.0, freq_hz=2.6e6, rise_time=11e-9,
        sync=SyncSpec() if sync else None,
    )


@pytest.fixture(scope="module")
def session(chip):
    return SimulationSession(chip, RunOptions(segments=2, base_samples=1024))


class TestCustomerMarginLine:
    def test_customer_margin_exceeds_stressmark(self, chip, session):
        stressmark = vmin_experiment(chip, [max_mark()] * 6).run(session)
        customer = customer_margin_line(
            chip, max_mark(sync=False)
        ).run(session)
        # ~80% ΔI without sync leaves more margin than the full
        # synchronized stressmark.
        assert customer.margin_frac > stressmark.margin_frac

    def test_customer_program_derates_delta_i(self, chip, session):
        full = max_mark(sync=False)
        low_fraction = customer_margin_line(
            chip, full, delta_i_fraction=0.4
        ).run(session)
        high_fraction = customer_margin_line(
            chip, full, delta_i_fraction=1.0
        ).run(session)
        assert low_fraction.margin_frac >= high_fraction.margin_frac

    def test_invalid_fraction_rejected(self, chip):
        with pytest.raises(ExperimentError):
            customer_margin_line(
                chip, max_mark(sync=False), delta_i_fraction=0.0
            )

    def test_customer_is_unsynchronized(self, chip, session):
        # Even handed a synchronized stressmark, the customer derivative
        # must drop the sync (real code does not align swings).
        result = customer_margin_line(chip, max_mark(sync=True)).run(session)
        assert result.margin_frac > 0.0
