"""Stressmark assembly and synchronization planning tests."""

import pytest

from repro.core.stressmark import StressmarkBuilder, StressmarkSpec
from repro.core.sync import offset_assignments, spread_offsets
from repro.errors import GenerationError
from repro.machine.tod import TOD_STEP


class TestSpec:
    def test_valid(self):
        spec = StressmarkSpec(stimulus_freq_hz=2e6, synchronize=True,
                              misalignment=125e-9, n_events=100)
        assert spec.duty == 0.5

    def test_misalignment_requires_sync(self):
        with pytest.raises(GenerationError, match="requires synchronization"):
            StressmarkSpec(stimulus_freq_hz=2e6, misalignment=62.5e-9)

    def test_misalignment_on_tod_grid(self):
        with pytest.raises(GenerationError, match="62.5"):
            StressmarkSpec(
                stimulus_freq_hz=2e6, synchronize=True, misalignment=40e-9
            )

    def test_guards(self):
        with pytest.raises(GenerationError):
            StressmarkSpec(stimulus_freq_hz=0.0)
        with pytest.raises(GenerationError):
            StressmarkSpec(stimulus_freq_hz=1e6, n_events=0)
        with pytest.raises(GenerationError):
            StressmarkSpec(stimulus_freq_hz=1e6, duty=1.0)


class TestBuilder:
    def test_phase_lengths_track_frequency(self, generator):
        builder = generator.max_builder
        slow = builder.phase_repetitions(StressmarkSpec(stimulus_freq_hz=1e5))
        fast = builder.phase_repetitions(StressmarkSpec(stimulus_freq_hz=1e7))
        assert slow[0] > fast[0]
        assert slow[1] > fast[1]

    def test_achieved_frequency_close_when_feasible(self, generator):
        mark = generator.max_didt(freq_hz=2.6e6)
        assert mark.achieved_freq_hz == pytest.approx(2.6e6, rel=0.05)

    def test_achieved_frequency_deviates_at_limit(self, generator):
        mark = generator.max_didt(freq_hz=1e8)
        # Integral repetition counts force a different real period.
        assert mark.achieved_freq_hz != pytest.approx(1e8, rel=0.001)
        # One sequence repetition per phase is the fastest the loop
        # can alternate.
        builder = generator.max_builder
        fastest = builder.target.core.clock_hz / (
            builder._high_cycles + builder._low_cycles
        )
        assert mark.achieved_freq_hz <= fastest * 1.05

    def test_delta_i_positive_and_realistic(self, max_stressmark):
        assert 10.0 < max_stressmark.delta_i < 40.0

    def test_current_program_compilation(self, max_stressmark):
        program = max_stressmark.current_program()
        assert program.sync is not None
        assert program.sync.events_per_sync == 1000
        assert program.i_high > program.i_low
        assert program.freq_hz == pytest.approx(
            max_stressmark.achieved_freq_hz
        )

    def test_unsync_compilation(self, generator):
        program = generator.max_didt(freq_hz=2.6e6, synchronize=False).current_program()
        assert program.sync is None

    def test_assembly_renders(self, max_stressmark):
        text = max_stressmark.assembly()
        assert "didt" in text
        for mnemonic in {i.mnemonic for i in max_stressmark.high_body}:
            assert mnemonic in text

    def test_materialization_cap(self, generator):
        mark = generator.max_didt(freq_hz=10.0, synchronize=True)
        # Program body is bounded even for second-scale periods...
        assert len(mark.program.loop_body) < 5000
        # ... while the repetition counts keep the true phase lengths.
        assert mark.high_repetitions > 10_000

    def test_high_must_outconsume_low(self, generator, target):
        with pytest.raises(GenerationError, match="out-consume"):
            StressmarkBuilder(
                target, generator.min_sequence, generator.max_sequence
            )

    def test_medium_level(self, generator):
        med = generator.medium_didt(freq_hz=2.6e6)
        maxi = generator.max_didt(freq_hz=2.6e6)
        assert med.delta_i == pytest.approx(maxi.delta_i / 2, rel=0.1)

    def test_unknown_level_rejected(self, generator):
        with pytest.raises(GenerationError):
            generator.build(StressmarkSpec(stimulus_freq_hz=1e6), level="tiny")


class TestSpreadOffsets:
    def test_zero_misalignment_all_aligned(self):
        assert spread_offsets(6, 0.0) == [0.0] * 6

    def test_paper_example_125ns(self):
        """'for a maximum allowed misalignment of 125ns, 2 stressmarks
        are synchronized at t=0, 2 at t=62.5ns and 2 at t=125ns'"""
        offsets = spread_offsets(6, 125e-9)
        assert sorted(offsets) == pytest.approx(
            [0.0, 0.0, 62.5e-9, 62.5e-9, 125e-9, 125e-9]
        )

    def test_one_step(self):
        offsets = spread_offsets(6, 62.5e-9)
        assert sorted(offsets) == pytest.approx(
            [0.0, 0.0, 0.0, 62.5e-9, 62.5e-9, 62.5e-9]
        )

    def test_grid_enforced(self):
        with pytest.raises(GenerationError):
            spread_offsets(6, 100e-9)

    def test_max_spread(self):
        offsets = spread_offsets(6, 5 * TOD_STEP)
        assert len(set(offsets)) == 6


class TestOffsetAssignments:
    def test_all_distinct_permutations(self):
        offsets = [0.0, 0.0, 0.0, TOD_STEP, TOD_STEP, TOD_STEP]
        assignments = list(offset_assignments(offsets))
        assert len(assignments) == 20  # 6!/(3!3!)
        assert len(set(assignments)) == 20

    def test_sampling_is_deterministic(self):
        offsets = [0.0, 0.0, TOD_STEP, TOD_STEP, 2 * TOD_STEP, 2 * TOD_STEP]
        a = list(offset_assignments(offsets, sample=5, seed=3))
        b = list(offset_assignments(offsets, sample=5, seed=3))
        assert a == b
        assert len(a) == 5

    def test_wrong_length_rejected(self):
        with pytest.raises(GenerationError):
            list(offset_assignments([0.0] * 4))
