"""End-to-end integration tests: the whole stack, from ISA to skitter.

These retrace the paper's narrative top to bottom on the session
fixtures: profile the ISA, search the max-power sequence, assemble
stressmarks, run them on the chip, and verify the headline findings.
"""

import pytest

from repro import (
    ChipRunner,
    RunOptions,
    StressmarkSpec,
    idle_program,
    reference_chip,
)
from repro.engine import SimulationSession
from repro.measure.vmin import vmin_experiment


@pytest.fixture(scope="module")
def options():
    return RunOptions(segments=4, base_samples=1536)


@pytest.fixture(scope="module")
def runner(chip):
    return ChipRunner(chip)


@pytest.fixture(scope="module")
def sync_mark(generator):
    return generator.max_didt(freq_hz=2.6e6, synchronize=True)


class TestHeadlineNumbers:
    """The paper's two headline noise levels at the resonant band."""

    def test_synchronized_noise_near_61(self, runner, sync_mark, options):
        result = runner.run([sync_mark.current_program()] * 6, options, "h1")
        assert result.max_p2p == pytest.approx(61.0, abs=8.0)

    def test_unsynchronized_noise_near_41(self, runner, generator, options):
        program = generator.max_didt(
            freq_hz=2.6e6, synchronize=False
        ).current_program()
        result = runner.run([program] * 6, options, "h2")
        assert result.max_p2p == pytest.approx(41.0, abs=8.0)

    def test_sync_uplift_about_20_points(self, runner, generator, options):
        synced = runner.run(
            [generator.max_didt(freq_hz=2.6e6, synchronize=True).current_program()] * 6,
            options, "h3",
        )
        unsynced = runner.run(
            [generator.max_didt(freq_hz=2.6e6, synchronize=False).current_program()] * 6,
            options, "h3",
        )
        assert synced.max_p2p - unsynced.max_p2p == pytest.approx(20.0, abs=10.0)


class TestParameterHierarchy:
    """§V-F: ΔI magnitude and synchronization are primary; stimulus
    frequency and consecutive-event count are secondary."""

    def test_sync_matters_more_than_resonance(self, runner, generator, options):
        sync_off_resonance = runner.run(
            [generator.max_didt(freq_hz=4e5, synchronize=True).current_program()] * 6,
            options, "p1",
        ).max_p2p
        unsync_at_resonance = runner.run(
            [generator.max_didt(freq_hz=2.6e6, synchronize=False).current_program()] * 6,
            options, "p1",
        ).max_p2p
        assert sync_off_resonance > unsync_at_resonance

    def test_event_count_is_secondary(self, chip, generator, options):
        session = SimulationSession(chip, options)
        one = vmin_experiment(
            chip,
            [generator.max_didt(freq_hz=2.6e6, synchronize=True, n_events=1).current_program()] * 6,
        ).run(session)
        thousand = vmin_experiment(
            chip,
            [generator.max_didt(freq_hz=2.6e6, synchronize=True, n_events=1000).current_program()] * 6,
        ).run(session)
        assert abs(one.margin_frac - thousand.margin_frac) <= 0.02

    def test_delta_i_is_primary(self, runner, generator, options):
        full = runner.run(
            [generator.max_didt(freq_hz=2.6e6, synchronize=True).current_program()] * 6,
            options, "p3",
        ).max_p2p
        half = runner.run(
            [generator.medium_didt(freq_hz=2.6e6, synchronize=True).current_program()] * 6,
            options, "p3",
        ).max_p2p
        assert full - half >= 15.0


class TestGenerationToExecutionPath:
    """The full artifact chain: spec → program → electrical → readings."""

    def test_stressmark_is_runnable_artifact(self, generator):
        mark = generator.build(
            StressmarkSpec(
                stimulus_freq_hz=1e6,
                synchronize=True,
                misalignment=187.5e-9,
                n_events=64,
            )
        )
        text = mark.assembly()
        assert "didt" in text
        program = mark.current_program()
        assert program.sync.offset == pytest.approx(187.5e-9)
        assert program.sync.events_per_sync == 64

    def test_partial_occupancy_mapping(self, runner, generator, options):
        mark = generator.max_didt(freq_hz=2.6e6, synchronize=True)
        idle = idle_program(generator.target.idle_current)
        result = runner.run(
            [mark.current_program()] * 2 + [idle] * 4, options, "g1"
        )
        full = runner.run([mark.current_program()] * 6, options, "g1")
        assert result.max_p2p < full.max_p2p

    def test_fresh_chip_instance_reproduces(self, generator, options):
        program = generator.max_didt(
            freq_hz=2.6e6, synchronize=True
        ).current_program()
        a = ChipRunner(reference_chip()).run([program] * 6, options, "g2")
        b = ChipRunner(reference_chip()).run([program] * 6, options, "g2")
        assert a.p2p_by_core == b.p2p_by_core
