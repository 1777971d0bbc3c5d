"""Stepping engine: exact continuation and actuation semantics."""

from __future__ import annotations

import copy

import pytest

from repro.control.study import results_identical
from repro.engine import SimulationSession
from repro.engine.cache import ResultCache
from repro.engine.stepping import Actuation, SteppingSession
from repro.errors import ConfigError, ControlError
from repro.machine.runner import ChipRunner
from repro.machine.system import VOLTAGE_STEP
from repro.pdn.kernels import CompiledChipKernel


def monolithic(chip, mapping, options):
    session = SimulationSession(
        chip, options, cache=ResultCache(cache_dir=None)
    )
    return session.run(mapping, run_tag="control")


class TestExactContinuation:
    def test_stepping_equals_monolithic(
        self, chip, loop_mapping, loop_options
    ):
        stepping = SteppingSession(
            chip, loop_mapping, loop_options, windows_per_segment=5
        )
        observations = stepping.run_to_completion()
        assert len(observations) == stepping.n_windows
        baseline = monolithic(chip, loop_mapping, loop_options)
        assert results_identical(stepping.result(), baseline)

    def test_synchronized_run_solves_one_segment(
        self, chip, loop_mapping, loop_options, monkeypatch
    ):
        """Every window of the synchronized run lists one segment
        object: it is solved once, and stepping over distinct copies
        of it, each solved on its own, observes the same windows."""
        evaluated = []
        real = CompiledChipKernel.evaluate

        def spy(self, *args, **kwargs):
            evaluated.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(CompiledChipKernel, "evaluate", spy)
        shared = SteppingSession(
            chip, loop_mapping, loop_options, windows_per_segment=4
        )
        assert loop_options.segments > 1
        observations = shared.run_to_completion()
        assert len(evaluated) == 1

        build = ChipRunner.build_stimulus

        def per_window_copies(self, *args, **kwargs):
            batch = build(self, *args, **kwargs)
            batch.segments = [copy.copy(segment) for segment in batch.segments]
            return batch

        monkeypatch.setattr(ChipRunner, "build_stimulus", per_window_copies)
        copies = SteppingSession(
            chip, loop_mapping, loop_options, windows_per_segment=4
        )
        assert copies.run_to_completion() == observations
        assert len(evaluated) == 1 + loop_options.segments

    def test_rewind_replays_bitwise(self, chip, loop_mapping, loop_options):
        stepping = SteppingSession(
            chip, loop_mapping, loop_options, windows_per_segment=4
        )
        first = stepping.run_to_completion()
        stepping.rewind()
        second = stepping.run_to_completion()
        assert first == second

    def test_windows_tile_each_segment(
        self, chip, loop_mapping, loop_options
    ):
        stepping = SteppingSession(
            chip, loop_mapping, loop_options, windows_per_segment=6
        )
        observations = stepping.run_to_completion()
        assert [obs.index for obs in observations] == list(
            range(stepping.n_windows)
        )
        per_segment: dict[int, int] = {}
        for obs in observations:
            assert obs.n_samples > 0
            assert obs.t_start <= obs.t_end
            per_segment[obs.segment] = (
                per_segment.get(obs.segment, 0) + obs.n_samples
            )
        for seg, segment in enumerate(stepping.batch.segments):
            assert per_segment[seg] == segment.times.size

    def test_step_past_completion_raises(
        self, chip, loop_mapping, loop_options
    ):
        stepping = SteppingSession(
            chip, loop_mapping, loop_options, windows_per_segment=2
        )
        stepping.run_to_completion()
        with pytest.raises(ControlError):
            stepping.step()

    def test_invalid_window_count_rejected(
        self, chip, loop_mapping, loop_options
    ):
        with pytest.raises(ConfigError):
            SteppingSession(
                chip, loop_mapping, loop_options, windows_per_segment=0
            )


class TestActuation:
    def test_bias_is_a_pure_offset(self, chip, loop_mapping, loop_options):
        plain = SteppingSession(
            chip, loop_mapping, loop_options, windows_per_segment=4
        )
        biased = SteppingSession(
            chip, loop_mapping, loop_options, windows_per_segment=4
        )
        steps = -10
        offset = steps * VOLTAGE_STEP * chip.vnom
        reference = plain.run_to_completion()
        first = biased.step(Actuation(bias_steps=steps))
        assert first.supply_bias == 1.0 + steps * VOLTAGE_STEP
        assert first.v_min == tuple(
            v + offset for v in reference[0].v_min
        )
        assert first.v_max == tuple(
            v + offset for v in reference[0].v_max
        )

    def test_bias_beyond_service_range_rejected(
        self, chip, loop_mapping, loop_options
    ):
        stepping = SteppingSession(
            chip, loop_mapping, loop_options, windows_per_segment=2
        )
        with pytest.raises(ConfigError):
            stepping.step(Actuation(bias_steps=-100))
