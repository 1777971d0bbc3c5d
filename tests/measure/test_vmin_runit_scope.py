"""Vmin protocol, R-Unit and oscilloscope tests."""

import numpy as np
import pytest

from repro.engine import SimulationSession
from repro.errors import ConfigError, MeasurementError
from repro.machine.runner import RunOptions
from repro.machine.workload import CurrentProgram, SyncSpec
from repro.measure.oscilloscope import TraceCapture, capture_trace
from repro.measure.runit import RUnit, RUnitConfig
from repro.measure.vmin import vmin_experiment


def didt(sync=True, i_high=32.0):
    return CurrentProgram(
        name="v",
        i_low=14.0,
        i_high=i_high,
        freq_hz=2.6e6,
        rise_time=11e-9,
        sync=SyncSpec() if sync else None,
    )


@pytest.fixture(scope="module")
def session(chip):
    return SimulationSession(chip, RunOptions(segments=2, base_samples=1024))


class TestRUnit:
    def test_threshold(self):
        runit = RUnit(RUnitConfig(v_fail_frac=0.9), vnom=1.0)
        assert runit.v_fail == pytest.approx(0.9)
        assert not runit.check(0.95)
        assert runit.check(0.85)
        assert runit.error_count == 1
        runit.reset()
        assert runit.error_count == 0

    def test_config_guards(self):
        with pytest.raises(ConfigError):
            RUnitConfig(v_fail_frac=1.2)
        with pytest.raises(ConfigError):
            RUnit(RUnitConfig(), vnom=0.0)


class TestVminExperiment:
    def test_protocol_finds_margin(self, chip, session):
        result = vmin_experiment(chip, [didt()] * 6).run(session)
        assert 0.0 <= result.margin_frac < 0.2
        assert result.fail_bias < 1.0
        # Margin is a whole number of 0.5 % steps.
        steps = result.margin_frac / 0.005
        assert steps == pytest.approx(round(steps))

    def test_sync_margin_below_unsync(self, chip, session):
        synced = vmin_experiment(chip, [didt(sync=True)] * 6).run(session)
        unsynced = vmin_experiment(chip, [didt(sync=False)] * 6).run(session)
        assert synced.margin_frac < unsynced.margin_frac

    def test_dwell_time_tracked(self, chip, session):
        result = vmin_experiment(chip, [didt()] * 6).run(session)
        assert result.simulated_minutes == pytest.approx(
            2.0 * (result.steps_survived + 1)
        )

    def test_unreachable_threshold_raises(self, chip, session):
        quiet = CurrentProgram("q", i_low=1.0, i_high=1.0)
        with pytest.raises(MeasurementError, match="no failure"):
            vmin_experiment(
                chip,
                [quiet] * 6,
                runit_config=RUnitConfig(v_fail_frac=0.51),
                max_steps=5,
            ).run(session)

    def test_unreachable_threshold_error_names_the_experiment(
        self, chip, session
    ):
        # Near-margin debugging of a multi-chip, multi-workload
        # campaign: the error alone must identify which experiment
        # never failed and where the search ended up.
        quiet = CurrentProgram("q", i_low=1.0, i_high=1.0)
        with pytest.raises(MeasurementError) as excinfo:
            vmin_experiment(
                chip,
                [quiet] * 3 + [None] * 3,
                runit_config=RUnitConfig(v_fail_frac=0.51),
                max_steps=5,
            ).run(session)
        message = str(excinfo.value)
        assert f"chip {chip.chip_id}" in message
        assert "'q'" in message  # the workload tag
        assert "5 bias steps" in message
        assert "final bias" in message
        assert "R-Unit threshold" in message

    def test_idle_mapping_is_named_in_the_error(self, chip, session):
        idle = CurrentProgram("i", i_low=5.0, i_high=5.0)
        with pytest.raises(MeasurementError) as excinfo:
            vmin_experiment(
                chip,
                [idle, None, None, None, None, None],
                runit_config=RUnitConfig(v_fail_frac=0.51),
                max_steps=3,
            ).run(session)
        assert "'i'" in str(excinfo.value)


class TestOscilloscope:
    @pytest.fixture(scope="class")
    def scope_session(self, chip):
        return SimulationSession(
            chip, RunOptions(segments=1, base_samples=1024)
        )

    @pytest.fixture(scope="class")
    def trace(self, scope_session):
        return capture_trace([didt()] * 6, node="core0").run(scope_session)

    def test_uniform_resampling(self, trace):
        dt = np.diff(trace.times)
        assert np.allclose(dt, dt[0])

    def test_waveform_has_noise(self, trace):
        assert trace.peak_to_peak > 0.02  # tens of mV on the core rail

    def test_crop_window(self, trace):
        period = 1 / 2.6e6
        single = trace.crop(2 * period, 3 * period)
        assert single.times[0] >= 2 * period
        assert single.times[-1] <= 3 * period
        assert single.peak_to_peak <= trace.peak_to_peak

    def test_bad_crop_rejected(self, trace):
        with pytest.raises(MeasurementError):
            trace.crop(1.0, 0.5)
        with pytest.raises(MeasurementError):
            trace.crop(5.0, 6.0)  # beyond the capture

    def test_unknown_node_rejected(self, scope_session):
        with pytest.raises(MeasurementError):
            capture_trace([didt()] * 6, node="not-a-node").run(scope_session)
