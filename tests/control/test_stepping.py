"""Stepping engine: exact continuation and actuation semantics."""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.control.study import results_identical
from repro.engine import SimulationSession
from repro.engine.cache import ResultCache
from repro.engine.stepping import Actuation, SteppingSession, WindowObservation
from repro.errors import ConfigError, ControlError
from repro.machine.runner import ChipRunner
from repro.machine.system import VOLTAGE_STEP, ServiceElement
from repro.pdn.kernels import CompiledChipKernel

from .conftest import control_program


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


#: Bias schedules (whole 0.5 % steps per window; ``None`` = no
#: actuation) that move every window of both test mappings across the
#: droop threshold and back: their window minima sit 0.5-2.6 steps
#: above it at the nominal supply.
BIAS_SCHEDULES = (
    (0, -1, -2, -3, -2, 0, -3, -1),
    (-3, 0, -1, -3, -1, -2, 0, -3),
    (None,) * 8,
)


def reread_observations(stepping, schedule):
    """A copy of the per-step loop that re-read every window from the
    solved block at each step, run over *schedule* on *stepping*'s
    schedule, batch and solved blocks."""
    chip = stepping.chip
    service = ServiceElement(chip)
    port_to_core = {port: i for i, port in enumerate(chip.core_ports)}
    observations = []
    for index, (seg, win) in enumerate(stepping._schedule):
        if schedule[index] is not None:
            service.set_bias_steps(schedule[index])
        lo = int(stepping._bounds[seg][win])
        hi = int(stepping._bounds[seg][win + 1])
        rows = stepping._segment_rows(seg)[:, lo:hi]
        segment = stepping.batch.segments[seg]
        times = segment.times
        bias = service.bias
        offset = (bias - 1.0) * chip.vnom
        v_min, v_mean, v_max = [], [], []
        worst = np.inf
        droop_events = 0
        t_start = float(times[lo])
        t_end = float(times[hi - 1])
        for core in range(chip.n_cores):
            node = chip.core_nodes[core]
            volts = stepping.batch.dc_levels[node] + rows[core]
            raw_min = float(volts.min())
            raw_max = float(volts.max())
            observed = volts + offset if offset else volts
            v_min.append(raw_min + offset)
            v_max.append(raw_max + offset)
            v_mean.append(float(volts.mean()) + offset)
            ssn = (
                chip.skitters[core].config.ssn_gain * segment.coherent[core]
                if stepping.options.include_ssn
                else 0.0
            )
            worst = min(worst, raw_min + offset - ssn)
            below = observed < stepping.droop_threshold_v
            if below.any():
                droop_events += int(below[0]) + int(
                    np.count_nonzero(below[1:] & ~below[:-1])
                )
        core_edges = {
            port_to_core[train.port]: np.sort(train.times)
            for train in segment.trains
        }
        active = []
        for core, program in enumerate(stepping.batch.mapping):
            if program is None:
                continue
            if program.is_steady:
                active.append(core)
                continue
            edges = core_edges.get(core)
            if edges is None:
                continue
            first = int(np.searchsorted(edges, t_start, side="left"))
            if first < edges.size and edges[first] <= t_end:
                active.append(core)
        observations.append(
            WindowObservation(
                index=index,
                segment=seg,
                window=win,
                t_start=t_start,
                t_end=t_end,
                n_samples=hi - lo,
                supply_bias=bias,
                v_min=tuple(v_min),
                v_mean=tuple(v_mean),
                v_max=tuple(v_max),
                worst_vmin=float(worst),
                active_cores=tuple(active),
                utilization=len(active) / chip.n_cores,
                droop_events=droop_events,
                coherent=tuple(segment.coherent),
            )
        )
    return observations


@pytest.fixture(params=["loop_mapping", "phase_randomized"])
def window_mapping(request, loop_mapping):
    if request.param == "loop_mapping":
        return loop_mapping
    return [dataclasses.replace(control_program(), sync=None)] * 6


class TestWindowReadings:
    """Each window's bias-independent readings are read once; a step
    applies only the bias offset, the SSN deepening, the droop gate
    and the sticky fold."""

    def test_observations_equal_a_per_step_reread(
        self, chip, window_mapping, loop_options
    ):
        stepping = SteppingSession(
            chip, window_mapping, loop_options, windows_per_segment=4
        )
        assert stepping.n_windows == 8
        droop_counts = []
        for schedule in BIAS_SCHEDULES:
            stepping.rewind()
            emitted = [
                stepping.step(
                    None if steps is None else Actuation(bias_steps=steps)
                )
                for steps in schedule
            ]
            expected = reread_observations(stepping, schedule)
            assert emitted == expected
            droop_counts += [o.droop_events for o in expected]
        # The schedules cross the threshold both ways.
        assert any(droop_counts) and not all(droop_counts)

    def test_rewinds_read_each_window_once(
        self, chip, window_mapping, loop_options, monkeypatch
    ):
        reads = []
        real = SteppingSession._read_window

        def spy(self, seg, win):
            reads.append((id(self.batch.segments[seg]), win))
            return real(self, seg, win)

        monkeypatch.setattr(SteppingSession, "_read_window", spy)
        stepping = SteppingSession(
            chip, window_mapping, loop_options, windows_per_segment=4
        )
        for schedule in BIAS_SCHEDULES:
            stepping.rewind()
            for steps in schedule:
                stepping.step(
                    None if steps is None else Actuation(bias_steps=steps)
                )
        distinct = {
            (id(stepping.batch.segments[seg]), win)
            for seg, win in stepping._schedule
        }
        assert sorted(reads) == sorted(distinct)
        # A synchronized run lists one segment object for every window.
        segment_objects = {id(segment) for segment in stepping.batch.segments}
        assert len(reads) == 4 * len(segment_objects)
