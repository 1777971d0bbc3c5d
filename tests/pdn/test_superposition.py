"""Edge trains, and waveform assembly by the per-edge superposition
oracle."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.pdn.netlist import Netlist
from repro.pdn.response import ResponseLibrary
from repro.pdn.superposition import EdgeTrain, edges_from_square_wave

from ..oracles.superposition import assemble_voltage


def net():
    n = Netlist("sup")
    n.add_voltage_port("vin", "src")
    n.add_inductor("l1", "src", "a", 0.5e-9, esr=0.02)
    n.add_capacitor("ca", "a", 2e-6, esr=5e-4)
    n.add_current_port("load", "a")
    return n


@pytest.fixture(scope="module")
def library():
    return ResponseLibrary(net(), ports=["load"], nodes=["a"], rise_time=2e-9)


class TestEdgesFromSquareWave:
    def test_edge_count_and_signs(self):
        train = edges_from_square_wave("load", 10.0, 1e6, n_events=5)
        assert train.times.size == 10
        assert np.all(train.deltas[0::2] == 10.0)
        assert np.all(train.deltas[1::2] == -10.0)

    def test_edge_timing(self):
        train = edges_from_square_wave("load", 1.0, 2e6, n_events=2, start=1e-6)
        period = 0.5e-6
        expected = [1e-6, 1e-6 + 0.5 * period, 1e-6 + period, 1e-6 + 1.5 * period]
        assert np.allclose(train.times, expected)

    def test_duty_controls_fall_position(self):
        train = edges_from_square_wave("load", 1.0, 1e6, n_events=1, duty=0.25)
        assert train.times[1] - train.times[0] == pytest.approx(0.25e-6)

    def test_derating_at_infeasible_frequency(self):
        # Half-period 5 ns < 20 ns rise: the current swing collapses.
        train = edges_from_square_wave(
            "load", 10.0, 1e8, n_events=1, rise_time=20e-9
        )
        assert abs(train.deltas[0]) == pytest.approx(10.0 * 5e-9 / 20e-9)

    def test_no_derating_when_feasible(self):
        train = edges_from_square_wave(
            "load", 10.0, 1e6, n_events=1, rise_time=20e-9
        )
        assert abs(train.deltas[0]) == 10.0

    def test_validation(self):
        with pytest.raises(SolverError):
            edges_from_square_wave("load", 1.0, -1.0, 1)
        with pytest.raises(SolverError):
            edges_from_square_wave("load", 1.0, 1e6, 0)
        with pytest.raises(SolverError):
            edges_from_square_wave("load", 1.0, 1e6, 1, duty=1.5)

    def test_shifted(self):
        train = edges_from_square_wave("load", 1.0, 1e6, 2)
        moved = train.shifted(3e-6)
        assert np.allclose(moved.times, train.times + 3e-6)
        assert np.array_equal(moved.deltas, train.deltas)


class TestAssembleVoltage:
    def test_linearity_in_amplitude(self, library):
        t = np.linspace(0, 5e-6, 2000)
        small = assemble_voltage(
            library, "a", [edges_from_square_wave("load", 1.0, 1e6, 3)], t
        )
        large = assemble_voltage(
            library, "a", [edges_from_square_wave("load", 2.0, 1e6, 3)], t
        )
        assert np.allclose(large, 2.0 * small, atol=1e-9)

    def test_superposition_of_trains(self, library):
        t = np.linspace(0, 5e-6, 2000)
        a = edges_from_square_wave("load", 1.0, 1e6, 3)
        b = edges_from_square_wave("load", 1.0, 1e6, 3, start=0.3e-6)
        combined = assemble_voltage(library, "a", [a, b], t)
        separate = assemble_voltage(library, "a", [a], t) + assemble_voltage(
            library, "a", [b], t
        )
        assert np.allclose(combined, separate, atol=1e-12)

    def test_current_returns_to_baseline_after_burst(self, library):
        # After the burst and settling, the deviation returns to ~0
        # (equal numbers of rising and falling edges).
        t = np.array([200e-6])
        train = edges_from_square_wave("load", 5.0, 1e6, 4)
        v = assemble_voltage(library, "a", [train], t)
        assert abs(v[0]) < 1e-4

    def test_baseline_adds_dc(self, library):
        t = np.linspace(0, 1e-6, 50)
        quiet = assemble_voltage(library, "a", [], t, baseline={"load": 2.0})
        assert np.allclose(quiet, 2.0 * library.dc("load", "a"))

    def test_mismatched_train_shapes_rejected(self):
        with pytest.raises(SolverError):
            EdgeTrain("load", np.array([0.0, 1.0]), np.array([1.0]))
