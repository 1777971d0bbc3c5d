"""Chip model and service element tests."""

import pytest

from repro.errors import ConfigError
from repro.machine.chip import Chip, ChipConfig, reference_chip
from repro.machine.system import VOLTAGE_STEP, ServiceElement


class TestChip:
    def test_reference_chip_shape(self, chip):
        assert len(chip.skitters) == 6
        assert chip.vnom == pytest.approx(1.05)
        assert set(chip.unit_skitters) == {"mcu", "gx", "l3"}

    def test_rows(self, chip):
        assert chip.row_of(0) == "north"
        assert chip.row_of(2) == "north"
        assert chip.row_of(1) == "south"
        with pytest.raises(ConfigError):
            chip.row_of(6)

    def test_coupling_weights_ordering(self, chip):
        own = chip.coupling_weight(0, 0)
        row = chip.coupling_weight(0, 2)
        cross = chip.coupling_weight(0, 1)
        assert own == 1.0
        assert own >= row >= cross

    def test_variation_applied_to_pdn(self, chip):
        assert chip.pdn_params.core_r_scale == chip.variation.r_scale

    def test_skitter_sensitivity_applied(self, chip):
        for macro, sens in zip(chip.skitters, chip.variation.skitter_sensitivity):
            assert macro.sensitivity == sens

    def test_cached_artifacts_are_shared(self, chip):
        assert chip.modal is chip.modal
        assert chip.response_library is chip.response_library

    def test_with_pdn_preserves_seed(self, chip):
        other = chip.with_pdn(chip.config.pdn.without_l3_bridge())
        assert other.variation == chip.variation
        assert other.pdn_params.c_l3 < chip.pdn_params.c_l3

    def test_different_chip_ids_vary(self):
        a = reference_chip(chip_id=0)
        b = reference_chip(chip_id=1)
        assert a.variation != b.variation

    def test_invalid_ssn_weights_rejected(self):
        with pytest.raises(ConfigError):
            ChipConfig(ssn_row_weight=0.5, ssn_cross_weight=0.8)

    def test_reset_skitters(self, chip):
        chip.skitters[0].observe(1.0, 1.05)
        chip.reset_skitters()
        from repro.errors import MeasurementError
        with pytest.raises(MeasurementError):
            chip.skitters[0].read()


class TestServiceElement:
    def test_bias_stepping(self, chip):
        service = ServiceElement(chip)
        assert service.bias == 1.0
        service.step_down()
        assert service.bias == pytest.approx(1.0 - VOLTAGE_STEP)

    def test_reset(self, chip):
        service = ServiceElement(chip)
        service.set_bias_steps(-10)
        service.reset_voltage()
        assert service.bias == 1.0

    def test_range_guard(self, chip):
        service = ServiceElement(chip)
        with pytest.raises(ConfigError):
            service.set_bias_steps(-100)
        with pytest.raises(ConfigError):
            service.set_bias_steps(1.5)  # not an int
