"""Cycle-level pipeline simulator tests, including cross-validation
against the analytic throughput model."""

import numpy as np
import pytest

from repro.errors import UarchError
from repro.uarch.throughput import analyze_loop

from ..oracles.pipeline import simulate_loop


class TestAgainstAnalyticModel:
    @pytest.mark.parametrize(
        "mnemonics",
        [
            ["CIB"] * 6,
            ["CHHSI", "CHHSI", "CIB"],
            ["SRNM"],
            ["MDTRA", "CIB"],
        ],
    )
    def test_ipc_agreement(self, target, mnemonics):
        body = [target.isa[m] for m in mnemonics]
        analytic = analyze_loop(body, target.core)
        simulated = simulate_loop(body, target.energy_model, iterations=80)
        assert simulated.ipc == pytest.approx(analytic.ipc, rel=0.15)

    def test_max_sequence_agreement(self, target, generator):
        body = list(generator.max_power_result.sequence)
        analytic = analyze_loop(body, target.core)
        simulated = simulate_loop(body, target.energy_model, iterations=100)
        assert simulated.ipc == pytest.approx(analytic.ipc, rel=0.1)

    def test_dynamic_power_agreement(self, target):
        body = [target.isa["CIB"]] * 6
        simulated = simulate_loop(body, target.energy_model, iterations=100)
        analytic = target.energy_model.dynamic_power(body)
        assert simulated.dynamic_power(target.core.clock_hz) == pytest.approx(
            analytic, rel=0.1
        )


class TestTraceShape:
    def test_energy_trace_length_and_total(self, target):
        body = [target.isa["CIB"]] * 3
        result = simulate_loop(body, target.energy_model, iterations=10)
        assert result.energy_per_cycle.size == result.cycles
        expected_total = 10 * target.energy_model.iteration_energy(body)
        assert result.energy_per_cycle.sum() == pytest.approx(expected_total)

    def test_serializing_creates_quiet_cycles(self, target):
        body = [target.isa["SRNM"]]
        result = simulate_loop(body, target.energy_model, iterations=5)
        quiet = np.sum(result.energy_per_cycle == 0.0)
        # Most cycles are pipeline-drained.
        assert quiet > 0.8 * result.cycles

    def test_uop_accounting(self, target):
        body = [target.isa["CIB"], target.isa["CHHSI"]]
        result = simulate_loop(body, target.energy_model, iterations=7)
        expected = 7 * sum(i.uops for i in body)
        assert result.uops == expected


class TestErrors:
    def test_empty_body(self, target):
        with pytest.raises(UarchError):
            simulate_loop([], target.energy_model)

    def test_zero_iterations(self, target):
        with pytest.raises(UarchError):
            simulate_loop([target.isa["CIB"]], target.energy_model, iterations=0)
