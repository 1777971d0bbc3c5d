"""Property: every window partition is bit-identical to the monolithic
solve — also under injected transient faults with retry (the
satellite acceptance property)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.study import results_identical
from repro.engine import SimulationSession
from repro.engine.cache import ResultCache
from repro.engine.resilience import RetryPolicy
from repro.engine.stepping import SteppingSession
from repro.errors import ExecutionError
from repro.faults import FaultPlan, reset_fault_memo


@pytest.fixture(scope="module")
def baseline(chip, loop_mapping, loop_options):
    """The monolithic result (the tolerance-zero target)."""
    return SimulationSession(
        chip, loop_options, cache=ResultCache(cache_dir=None)
    ).run(loop_mapping, run_tag="control")


@settings(max_examples=10, deadline=None)
@given(
    windows=st.integers(min_value=1, max_value=11),
    chunk=st.integers(min_value=1, max_value=5),
)
def test_any_partition_is_bit_identical(
    chip, loop_mapping, loop_options, baseline, windows, chunk
):
    stepping = SteppingSession(
        chip, loop_mapping, loop_options, windows_per_segment=windows
    )
    # Step in uneven chunks: continuation must not care how the caller
    # batches its windows.
    while not stepping.done:
        for _ in range(chunk):
            if stepping.done:
                break
            stepping.step()
    assert len(stepping.observations) == stepping.n_windows
    assert results_identical(stepping.result(), baseline)


@settings(max_examples=5, deadline=None)
@given(windows=st.integers(min_value=2, max_value=9))
def test_partition_under_transient_faults_with_retry(
    chip, loop_mapping, loop_options, baseline, windows
):
    """Every cold window solve takes one injected transient fault; the
    retry policy absorbs them all and the result is still exact."""
    reset_fault_memo()
    stepping = SteppingSession(
        chip,
        loop_mapping,
        loop_options,
        windows_per_segment=windows,
        faults=FaultPlan(seed=3, exception_rate=1.0),
        retry=RetryPolicy(max_retries=2),
    )
    stepping.run_to_completion()
    assert results_identical(stepping.result(), baseline)


def test_permanent_fault_surfaces_as_execution_error(
    chip, loop_mapping, loop_options
):
    reset_fault_memo()
    stepping = SteppingSession(
        chip,
        loop_mapping,
        loop_options,
        windows_per_segment=3,
        faults=FaultPlan(seed=3, exception_rate=1.0, transient=False),
        retry=RetryPolicy(max_retries=1),
    )
    with pytest.raises(ExecutionError):
        stepping.run_to_completion()
