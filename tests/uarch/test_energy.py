"""Energy model tests: the Table I inversion property and sequence
power composition."""

import pytest

from repro.errors import UarchError
from repro.uarch.energy import EnergyModel
from repro.uarch.power import estimate_loop_power
from repro.uarch.resources import CoreConfig
from repro.uarch.throughput import analyze_loop


class TestCalibrationInversion:
    """A long dependence-free loop of instruction X must measure back
    floor_power * weight(X) — the defining property of the model."""

    @pytest.mark.parametrize("mnemonic", ["CIB", "CHHSI", "SRNM", "MDTRA", "CRB"])
    def test_single_instruction_loops(self, target, mnemonic):
        inst = target.isa[mnemonic]
        body = [inst] * EnergyModel.CALIBRATION_REPS
        est = estimate_loop_power(body, target.energy_model)
        expected = target.core.floor_power_w * inst.power_weight
        assert est.watts == pytest.approx(expected, rel=1e-6)

    def test_floor_is_the_cheapest_loop(self, target):
        srnm = target.isa["SRNM"]
        est = estimate_loop_power([srnm] * 24, target.energy_model)
        assert est.watts == pytest.approx(target.core.floor_power_w, rel=1e-6)


class TestSequenceComposition:
    def test_mixed_sequence_beats_any_single_instruction(self, target, generator):
        """The paper's premise: combining units gives more power than
        any single instruction can."""
        sequence = generator.max_power_result.sequence
        mixed = estimate_loop_power(list(sequence), target.energy_model).watts
        best_single = max(
            target.core.floor_power_w * inst.power_weight for inst in target.isa
        )
        assert mixed > best_single * 1.2

    def test_dilution_lowers_power(self, target):
        cib = target.isa["CIB"]
        srnm = target.isa["SRNM"]
        model = target.energy_model
        pure = estimate_loop_power([cib] * 6, model).watts
        diluted = estimate_loop_power([cib] * 6 + [srnm], model).watts
        assert diluted < pure

    def test_nop_like_beats_stalling_instruction(self, target):
        """The paper: a NOP-ish cheap-but-fast op is NOT minimal power —
        long-latency serializing instructions are."""
        model = target.energy_model
        cheapest_fast = min(
            (i for i in target.isa if i.pipelined and not i.group_alone),
            key=lambda i: i.power_weight,
        )
        fast_power = estimate_loop_power([cheapest_fast] * 24, model).watts
        srnm_power = estimate_loop_power([target.isa["SRNM"]] * 24, model).watts
        assert srnm_power < fast_power


class TestEnergyAccessors:
    def test_epi_positive_for_all_instructions(self, target):
        model = target.energy_model
        for inst in list(target.isa)[:100]:
            assert model.epi(inst) > 0

    def test_epi_accepts_mnemonic_string(self, target):
        model = target.energy_model
        assert model.epi("CIB") == model.epi(target.isa["CIB"])

    def test_epi_unknown_raises(self, target):
        with pytest.raises(UarchError):
            target.energy_model.epi("NOSUCH")

    def test_idle_power_and_current(self, target):
        model = target.energy_model
        assert model.idle_current == pytest.approx(
            target.core.static_power_w / target.core.vnom
        )

    def test_iteration_energy_additive(self, target):
        model = target.energy_model
        a = target.isa["CIB"]
        b = target.isa["CHHSI"]
        total = model.iteration_energy([a, b])
        assert total == pytest.approx(model.epi(a) + model.epi(b))


class TestConfigGuards:
    def test_floor_must_exceed_static(self):
        with pytest.raises(UarchError):
            CoreConfig(static_power_w=15.0, floor_power_w=14.0)

    def test_power_estimate_fields(self, target):
        est = estimate_loop_power([target.isa["CIB"]] * 6, target.energy_model)
        assert est.watts == pytest.approx(
            est.dynamic_watts + target.core.static_power_w
        )
        assert est.amps == pytest.approx(est.watts / target.core.vnom)
        assert est.ipc == analyze_loop(
            [target.isa["CIB"]] * 6, target.core
        ).ipc
