"""TOD clock facility tests."""

import pytest

from repro.errors import ConfigError
from repro.machine.tod import SYNC_INTERVAL, TOD_STEP, TodClock


@pytest.fixture()
def tod():
    return TodClock()


class TestConstants:
    def test_paper_values(self):
        assert TOD_STEP == 62.5e-9
        assert SYNC_INTERVAL == 4e-3

    def test_interval_is_whole_steps(self):
        assert (SYNC_INTERVAL / TOD_STEP) == pytest.approx(64000)


class TestTicks:
    def test_tick_counting(self, tod):
        assert tod.ticks(0.0) == 0
        assert tod.ticks(62.5e-9) == 1
        assert tod.ticks(1e-6) == 16

    def test_negative_time_rejected(self, tod):
        with pytest.raises(ConfigError):
            tod.ticks(-1.0)


class TestQuantizeOffset:
    def test_exact_multiples_pass(self, tod):
        assert tod.quantize_offset(125e-9) == pytest.approx(125e-9)
        assert tod.quantize_offset(0.0) == 0.0

    def test_off_grid_rejected(self, tod):
        with pytest.raises(ConfigError, match="TOD step"):
            tod.quantize_offset(50e-9)


class TestNextSync:
    def test_invalid_configuration(self):
        with pytest.raises(ConfigError):
            TodClock(step=0.0)
        with pytest.raises(ConfigError):
            TodClock(step=1e-9, sync_interval=1.5e-9)
