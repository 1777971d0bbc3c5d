"""Backend-independence regression: serial and process execution must
produce bit-identical results.

Every run derives its random phase streams by name (chip, segment,
core), never from shared mutable RNG state, so fanning a batch out over
worker processes cannot change any reading.  This is what makes
``--jobs N`` safe to use on real campaigns — and what this test guards.
"""

from repro.engine import (
    ProcessExecutor,
    ResultCache,
    RetryPolicy,
    SimulationSession,
)
from repro.faults import FaultPlan, corrupt_cache_entries, reset_fault_memo
from repro.machine.runner import RunOptions
from repro.machine.workload import idle_program
from repro.obs import Telemetry

from .conftest import didt


def batch():
    """Three mappings with randomized phases (the hard case: the runs
    actually consume the seed) plus one deterministic mapping."""
    unsync = didt(sync=False)
    return (
        [
            [unsync] * 6,
            [unsync] * 3 + [idle_program(13.5)] * 3,
            [didt(sync=True)] * 6,
        ],
        ["u6", "u3", "s6"],
    )


def test_serial_and_process_runs_are_bit_identical(chip):
    options = RunOptions(segments=2, base_samples=1024)
    mappings, tags = batch()

    serial = SimulationSession(
        chip, options,
        cache=ResultCache(telemetry=Telemetry()),
        jobs=1, telemetry=Telemetry(),
    )
    process = SimulationSession(
        chip, options,
        cache=ResultCache(telemetry=Telemetry()),
        executor=ProcessExecutor(jobs=2), telemetry=Telemetry(),
    )

    serial_results = serial.run_many(mappings, tags)
    process_results = process.run_many(mappings, tags)

    assert process.telemetry.counter("engine.runs_executed") == len(mappings)
    for fast, slow in zip(process_results, serial_results):
        assert fast.p2p_by_core == slow.p2p_by_core
        assert fast.worst_vmin == slow.worst_vmin
        assert [m.coherent_delta_i for m in fast.measurements] == [
            m.coherent_delta_i for m in slow.measurements
        ]


def assert_identical(results, reference):
    for fast, slow in zip(results, reference):
        assert fast.p2p_by_core == slow.p2p_by_core
        assert fast.worst_vmin == slow.worst_vmin


def test_fault_injected_sweep_is_bit_identical_to_fault_free(chip, tmp_path):
    """The robustness acceptance criterion: a sweep whose runs crash
    workers and raise injected exceptions — and whose disk cache then
    has two entries torn — must still complete with results
    bit-identical to a fault-free serial sweep.  Fault decisions are
    content-keyed and the resilience layer (retry, pool degradation,
    quarantine-and-recompute) only ever re-executes pure runs, so no
    fault can leak into a result."""
    options = RunOptions(segments=2, base_samples=1024)
    mappings = [
        [didt(i_high=18.0 + i)] + [None] * 5 for i in range(6)
    ] + [[didt(sync=False)] * 6, [didt()] * 3 + [idle_program(13.5)] * 3]
    tags = [f"f{i}" for i in range(len(mappings))]

    reference = SimulationSession(
        chip, options,
        cache=ResultCache(telemetry=Telemetry()),
        jobs=1, faults=None, telemetry=Telemetry(),
    ).run_many(mappings, tags)

    reset_fault_memo()
    cache_dir = tmp_path / "cache"
    plan = FaultPlan(
        seed=3, crash_rate=0.2, exception_rate=0.3, corrupt_entries=2
    )
    telemetry = Telemetry()
    injected_session = SimulationSession(
        chip, options,
        cache=ResultCache(cache_dir=cache_dir, telemetry=telemetry),
        executor=ProcessExecutor(jobs=2),
        retry=RetryPolicy(max_retries=2, backoff_base_s=0.0),
        faults=plan,
        telemetry=telemetry,
    )
    try:
        injected = injected_session.run_many(mappings, tags)
    finally:
        reset_fault_memo()
    assert telemetry.counter("engine.retries") >= 1  # the plan did fire
    assert_identical(injected, reference)

    # Tear two checkpointed entries the way a kill without atomic
    # writes would; a fresh session quarantines them, replays the
    # healthy entries, and recomputes exactly the torn runs.
    victims = corrupt_cache_entries(cache_dir, plan)
    assert len(victims) == plan.corrupt_entries
    replay_telemetry = Telemetry()
    replayed = SimulationSession(
        chip, options,
        cache=ResultCache(cache_dir=cache_dir, telemetry=replay_telemetry),
        jobs=1, faults=None, telemetry=replay_telemetry,
    ).run_many(mappings, tags)
    assert replay_telemetry.counter("engine.cache.quarantined") == 2
    assert replay_telemetry.counter("engine.runs_executed") == 2
    assert replay_telemetry.counter("engine.cache.disk_hits") == len(
        mappings
    ) - 2
    assert_identical(replayed, reference)
