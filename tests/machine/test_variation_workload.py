"""Process variation and workload descriptor tests."""

import pytest

from repro.errors import ConfigError
from repro.machine.variation import LAYOUT_SENSITIVITY, draw_variation
from repro.machine.workload import CurrentProgram, SyncSpec, idle_program


class TestVariation:
    def test_deterministic_per_chip(self):
        a = draw_variation(17, 0)
        b = draw_variation(17, 0)
        assert a == b

    def test_chips_differ(self):
        assert draw_variation(17, 0) != draw_variation(17, 1)

    def test_vectors_cover_six_cores(self):
        v = draw_variation(1)
        assert len(v.r_scale) == 6
        assert len(v.skitter_sensitivity) == 6

    def test_scales_near_unity(self):
        v = draw_variation(1, electrical_sigma=0.03)
        for s in v.r_scale + v.c_scale:
            assert 0.9 < s < 1.1

    def test_layout_bias_prefers_cores_2_and_4(self):
        # Across many chips, cores 2 and 4 should read hottest on
        # average (the paper's observation on its parts).
        totals = [0.0] * 6
        for chip in range(24):
            v = draw_variation(99, chip)
            for c in range(6):
                totals[c] += v.skitter_sensitivity[c]
        ranked = sorted(range(6), key=lambda c: -totals[c])
        assert set(ranked[:2]) == {2, 4}

    def test_layout_vector_shape(self):
        assert len(LAYOUT_SENSITIVITY) == 6
        assert max(LAYOUT_SENSITIVITY) == LAYOUT_SENSITIVITY[2]

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            draw_variation(1, electrical_sigma=-0.1)


class TestSyncSpec:
    def test_defaults_match_paper(self):
        spec = SyncSpec()
        assert spec.events_per_sync == 1000
        assert spec.interval == 4e-3

    def test_offset_must_sit_on_tod_grid(self):
        SyncSpec(offset=125e-9)
        with pytest.raises(ConfigError):
            SyncSpec(offset=100e-9)

    def test_with_offset(self):
        spec = SyncSpec().with_offset(62.5e-9)
        assert spec.offset == 62.5e-9
        assert spec.events_per_sync == 1000

    def test_zero_events_rejected(self):
        with pytest.raises(ConfigError):
            SyncSpec(events_per_sync=0)


class TestCurrentProgram:
    def test_delta_and_average(self):
        prog = CurrentProgram("p", i_low=10.0, i_high=30.0, freq_hz=1e6, duty=0.5)
        assert prog.delta_i == 20.0
        assert not prog.is_steady

    def test_steady_when_no_frequency(self):
        prog = CurrentProgram("p", i_low=10.0, i_high=10.0)
        assert prog.is_steady

    def test_steady_when_no_swing(self):
        prog = CurrentProgram("p", i_low=10.0, i_high=10.0, freq_hz=1e6)
        assert prog.is_steady

    def test_idle_program(self):
        prog = idle_program(13.5)
        assert prog.is_steady
        assert prog.i_low == 13.5

    def test_invalid_levels_rejected(self):
        with pytest.raises(ConfigError):
            CurrentProgram("p", i_low=10.0, i_high=5.0)
        with pytest.raises(ConfigError):
            CurrentProgram("p", i_low=-1.0, i_high=5.0)

    def test_invalid_duty_rejected(self):
        with pytest.raises(ConfigError):
            CurrentProgram("p", i_low=1.0, i_high=2.0, freq_hz=1e6, duty=0.0)

    def test_with_sync(self):
        prog = CurrentProgram("p", i_low=1.0, i_high=2.0, freq_hz=1e6)
        synced = prog.with_sync(SyncSpec())
        assert synced.sync is not None
        assert prog.sync is None  # original untouched
