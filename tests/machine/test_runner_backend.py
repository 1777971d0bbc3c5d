"""The runner's solve path against its oracle: ``ChipRunner`` solves
through the compiled kernel, and per-edge superposition
(``tests/oracles/superposition.py``) solving the same
``build_stimulus`` output must agree within the kernel's pinned
tolerance — measurements and collected waveforms alike."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.runner import ChipRunner, RunOptions, WAVEFORM_EXTRA_NODES
from repro.machine.workload import CurrentProgram, SyncSpec, idle_program
from repro.pdn.kernels import KERNEL_TOLERANCE_V

from ..oracles.superposition import assemble_voltage


def didt(i_low=14.0, i_high=32.0, freq=2.6e6, sync=False, offset=0.0):
    return CurrentProgram(
        name="didt-backend",
        i_low=i_low,
        i_high=i_high,
        freq_hz=freq,
        rise_time=11e-9,
        sync=SyncSpec(offset=offset, events_per_sync=1000) if sync else None,
    )


class OracleRunner(ChipRunner):
    """A runner whose solve phase is per-edge superposition: same
    stimulus, same measurement, only the waveforms come from the
    oracle."""

    def _solve(self, batch, nodes):
        library = self.chip.response_library
        return [
            [
                assemble_voltage(library, node, seg.trains, seg.times)
                for node in nodes
            ]
            for seg in batch.distinct_segments
        ]

    def _solve_extra(self, segment):
        library = self.chip.response_library
        return [
            assemble_voltage(library, node, segment.trains, segment.times)
            for node in WAVEFORM_EXTRA_NODES
        ]


@pytest.fixture(scope="module")
def runner(chip):
    return ChipRunner(chip)


@pytest.fixture(scope="module")
def oracle(chip):
    return OracleRunner(chip)


def assert_equivalent(reference, fast):
    for ref, quick in zip(reference.measurements, fast.measurements):
        assert quick.coherent_delta_i == ref.coherent_delta_i
        assert abs(quick.v_min - ref.v_min) < KERNEL_TOLERANCE_V
        assert abs(quick.v_max - ref.v_max) < KERNEL_TOLERANCE_V
    assert set(fast.waveforms) == set(reference.waveforms)
    for node, (times, volts) in reference.waveforms.items():
        t_fast, v_fast = fast.waveforms[node]
        assert np.array_equal(t_fast, times)
        assert np.abs(v_fast - volts).max() < KERNEL_TOLERANCE_V


MAPPINGS = {
    "synchronized": lambda: [didt(sync=True)] * 6,
    "unsynchronized": lambda: [didt()] * 6,
    "misaligned": lambda: [didt(sync=True, offset=i * 62.5e-9)
                           for i in range(6)],
    "partial-idle": lambda: [didt(sync=True)] * 3 + [None] * 3,
    "all-idle": lambda: [idle_program(13.5)] * 6,
}


class TestRunEquivalence:
    @pytest.mark.parametrize("shape", sorted(MAPPINGS))
    def test_backends_agree(self, runner, oracle, shape):
        """``ChipRunner.run`` vs the oracle over the same stimulus,
        waveform extras (the nest nodes) included."""
        options = RunOptions(
            segments=2, base_samples=1024, collect_waveforms=True
        )
        batch = runner.build_stimulus(MAPPINGS[shape](), options, shape)
        fast = runner.run(batch.mapping, options, run_tag=shape)
        assert set(WAVEFORM_EXTRA_NODES) <= set(fast.waveforms)
        assert_equivalent(oracle.execute(batch), fast)

    def test_stimulus_is_backend_independent(self, runner, oracle):
        """build_stimulus + execute equals run(): the stimulus phase
        never sees the solver, and the oracle solving that very batch
        agrees with it."""
        mapping = [didt(sync=True)] * 6
        options = RunOptions(segments=2, base_samples=1024)
        batch = runner.build_stimulus(mapping, options, "split")
        via_kernel = runner.execute(batch)
        whole = runner.run(mapping, options, "split")
        assert via_kernel.p2p_by_core == whole.p2p_by_core
        assert_equivalent(oracle.execute(batch), via_kernel)
