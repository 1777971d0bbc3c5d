"""One stimulus for every window of a synchronized run.

A TOD-synchronized program starts its bursts at the same programmed
offset in every observation window, so a run with no phase-randomized
program builds its trains, sample grid and coherent ΔI once, solves
that one segment once and folds it into the sticky state once.  The
readings must equal, at tolerance zero, the loop that builds, solves
and folds every window on its own.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.control.study import results_identical
from repro.engine.stepping import SteppingSession
from repro.machine.runner import ChipRunner, RunOptions, SegmentStimulus
from repro.machine.workload import CurrentProgram, SyncSpec
from repro.pdn.kernels import CompiledChipKernel

OPTIONS = RunOptions(segments=4, base_samples=1024)


def didt(sync=True, offset=0.0, freq=2.6e6):
    return CurrentProgram(
        name="didt-reuse",
        i_low=14.0,
        i_high=30.0,
        freq_hz=freq,
        rise_time=11e-9,
        sync=SyncSpec(offset=offset) if sync else None,
    )


SYNCHRONIZED = {
    "aligned": lambda: [didt()] * 6,
    "misaligned": lambda: [didt(offset=i * 62.5e-9) for i in range(6)],
    "partial-idle": lambda: [didt()] * 3 + [None] * 3,
}
PHASE_RANDOMIZED = {
    "unsynchronized": lambda: [didt(sync=False)] * 6,
    "one-unsynchronized": lambda: [didt(sync=False)] + [didt()] * 5,
    # A burst period beyond the 4 ms sync interval cannot align.
    "too-slow-to-sync": lambda: [didt(freq=200.0)] * 6,
}


def every_window_loop(runner, mapping, options, run_tag):
    """The run as it was before segment reuse: every window's stimulus
    built, all of them solved in one batch, each folded on its own."""
    chip = runner.chip
    segments = []
    for window in range(options.segments):
        trains = runner._build_trains(mapping, options, run_tag, window)
        segments.append(SegmentStimulus(
            trains=trains,
            samples=runner._sample_times(trains, options),
            coherent=runner._coherent_delta_i(mapping, trains, options),
        ))
    batch = dataclasses.replace(
        runner.build_stimulus(mapping, options, run_tag), segments=segments
    )
    deviations = chip.compiled_kernel.solve_batch(
        [(segment.trains, segment.samples) for segment in segments],
        nodes=chip.core_nodes,
    )
    sticky = [
        {"v_min": np.inf, "v_max": -np.inf, "coherent": 0.0}
        for _ in range(chip.n_cores)
    ]
    for segment, rows in zip(segments, deviations):
        for core, node in enumerate(chip.core_nodes):
            volts = batch.dc_levels[node] + rows[core]
            state = sticky[core]
            state["v_min"] = min(state["v_min"], float(volts.min()))
            state["v_max"] = max(state["v_max"], float(volts.max()))
            state["coherent"] = max(state["coherent"], segment.coherent[core])
    return runner.measure(batch, sticky, deviations[0])


@pytest.fixture(scope="module")
def runner(chip):
    return ChipRunner(chip)


@pytest.fixture()
def counted(monkeypatch):
    """Calls of each segment-building step, and the stimulus count of
    every ``solve_batch`` call."""
    builds: Counter[str] = Counter()
    solved: list[int] = []
    for name in ("_build_trains", "_sample_times", "_coherent_delta_i"):
        real = getattr(ChipRunner, name)

        def spy(self, *args, _name=name, _real=real, **kwargs):
            builds[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(ChipRunner, name, spy)
    real_solve = CompiledChipKernel.solve_batch

    def solve_spy(self, stimuli, nodes=None):
        solved.append(len(stimuli))
        return real_solve(self, stimuli, nodes=nodes)

    monkeypatch.setattr(CompiledChipKernel, "solve_batch", solve_spy)
    return builds, solved


class TestBuildsAndSolves:
    @pytest.mark.parametrize("shape", sorted(SYNCHRONIZED))
    def test_synchronized_run_builds_and_solves_one_segment(
        self, runner, counted, shape
    ):
        builds, solved = counted
        batch = runner.build_stimulus(SYNCHRONIZED[shape](), OPTIONS, shape)
        assert len(batch.segments) == OPTIONS.segments
        assert all(segment is batch.segments[0] for segment in batch.segments)
        assert batch.distinct_segments == [batch.segments[0]]
        assert builds == {
            "_build_trains": 1, "_sample_times": 1, "_coherent_delta_i": 1,
        }
        runner.execute(batch)
        assert solved == [1]

    @pytest.mark.parametrize("shape", sorted(PHASE_RANDOMIZED))
    def test_phase_randomized_run_builds_every_segment(
        self, runner, counted, shape
    ):
        builds, solved = counted
        batch = runner.build_stimulus(
            PHASE_RANDOMIZED[shape](), OPTIONS, shape
        )
        assert len(batch.distinct_segments) == OPTIONS.segments
        assert set(builds.values()) == {OPTIONS.segments}
        runner.execute(batch)
        assert solved == [OPTIONS.segments]


class TestSameReadings:
    @pytest.mark.parametrize(
        "shape", sorted(SYNCHRONIZED) + sorted(PHASE_RANDOMIZED)
    )
    def test_run_equals_every_window_loop(self, runner, shape):
        mapping = {**SYNCHRONIZED, **PHASE_RANDOMIZED}[shape]()
        assert results_identical(
            runner.run(mapping, OPTIONS, shape),
            every_window_loop(runner, mapping, OPTIONS, shape),
        )

    def test_collected_waveforms_equal_every_window_loop(self, runner):
        options = dataclasses.replace(OPTIONS, collect_waveforms=True)
        mapping = SYNCHRONIZED["misaligned"]()
        reused = runner.run(mapping, options, "waves")
        loop = every_window_loop(runner, mapping, options, "waves")
        assert set(reused.waveforms) == set(loop.waveforms)
        for node, (times, volts) in loop.waveforms.items():
            assert np.array_equal(reused.waveforms[node][0], times)
            assert np.array_equal(reused.waveforms[node][1], volts)

    def test_stepping_result_equals_every_window_loop(self, runner, chip):
        mapping = SYNCHRONIZED["misaligned"]()
        stepping = SteppingSession(
            chip, mapping, OPTIONS, run_tag="stepped", windows_per_segment=3
        )
        assert results_identical(
            stepping.result(),
            every_window_loop(runner, mapping, OPTIONS, "stepped"),
        )
