"""Sensitivity sweep drivers and report rendering tests."""

import pytest

from repro.analysis.report import render_series, render_table
from repro.analysis.sensitivity import (
    default_frequency_grid,
    sweep_delta_i_mappings,
    sweep_misalignment,
    sweep_stimulus_frequency,
)
from repro.engine import SimulationSession
from repro.errors import ExperimentError
from repro.machine.runner import RunOptions
from repro.machine.tod import TOD_STEP


@pytest.fixture(scope="module")
def session(chip):
    return SimulationSession(chip, RunOptions(segments=2, base_samples=1024))


class TestFrequencyGrid:
    def test_log_spacing(self):
        grid = default_frequency_grid(1e3, 1e6, points_per_decade=2)
        assert grid[0] == pytest.approx(1e3)
        assert grid[-1] == pytest.approx(1e6)
        assert len(grid) == 7

    def test_bad_bounds_rejected(self):
        with pytest.raises(ExperimentError):
            default_frequency_grid(1e6, 1e3)


class TestFrequencySweep:
    def test_points_and_resonance(self, generator, chip, session):
        freqs = [3e5, 2.6e6, 2e7]
        points = sweep_stimulus_frequency(
            generator, chip, freqs, synchronize=True
        ).run(session)
        assert [p.freq_hz for p in points] == freqs
        by_freq = {p.freq_hz: p.max_p2p for p in points}
        assert by_freq[2.6e6] >= by_freq[3e5]
        assert by_freq[2.6e6] >= by_freq[2e7]

    def test_sync_uplift(self, generator, chip, session):
        freqs = [2.6e6]
        synced = sweep_stimulus_frequency(
            generator, chip, freqs, synchronize=True
        ).run(session)[0]
        unsynced = sweep_stimulus_frequency(
            generator, chip, freqs, synchronize=False
        ).run(session)[0]
        assert synced.max_p2p > unsynced.max_p2p


class TestMisalignmentSweep:
    def test_monotone_reduction(self, generator, chip, session):
        results = sweep_misalignment(
            generator, chip, [0.0, TOD_STEP, 5 * TOD_STEP],
            assignments_sample=2,
        ).run(session)
        aligned = max(results[0.0])
        one_step = max(results[TOD_STEP])
        spread = max(results[5 * TOD_STEP])
        assert one_step <= aligned
        assert spread <= aligned

    def test_per_core_vectors(self, generator, chip, session):
        results = sweep_misalignment(
            generator, chip, [0.0], assignments_sample=1
        ).run(session)
        assert len(results[0.0]) == 6


class TestDeltaISweep:
    @pytest.fixture(scope="class")
    def points(self, generator, chip, session):
        return sweep_delta_i_mappings(
            generator, chip,
            placements_per_distribution=1,
            workload_filter=lambda dist: dist in
            [(0, 0), (1, 0), (3, 0), (6, 0), (0, 6), (2, 2)],
        ).run(session)

    def test_filtered_distributions(self, points):
        assert {p.distribution for p in points} == {
            (0, 0), (1, 0), (3, 0), (6, 0), (0, 6), (2, 2)
        }

    def test_delta_pct_accounting(self, points):
        by_dist = {p.distribution: p for p in points}
        assert by_dist[(0, 0)].delta_i_pct == 0.0
        assert by_dist[(6, 0)].delta_i_pct == pytest.approx(100.0)
        # Two mediums equal one max.
        assert by_dist[(0, 6)].delta_i_pct == pytest.approx(50.0, abs=5.0)

    def test_noise_grows_with_delta(self, points):
        by_dist = {p.distribution: p.max_p2p for p in points}
        assert by_dist[(6, 0)] >= by_dist[(3, 0)] >= by_dist[(1, 0)]

    def test_active_core_accounting(self, points):
        by_dist = {p.distribution: p for p in points}
        assert by_dist[(2, 2)].active_cores == 4
        assert by_dist[(0, 0)].active_cores == 0


class TestReportRendering:
    def test_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_table_width_mismatch_rejected(self):
        with pytest.raises(ExperimentError):
            render_table(["a"], [[1, 2]])

    def test_series_rendering(self):
        text = render_series("x", ["p", "q"], {"s1": [1.0, 2.0]})
        assert "s1" in text
        assert "1.0" in text and "2.0" in text

    def test_series_length_mismatch_rejected(self):
        with pytest.raises(ExperimentError):
            render_series("x", ["p"], {"s1": [1.0, 2.0]})
