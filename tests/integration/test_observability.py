"""Acceptance: traced, fault-injected parallel sweep ≡ serial sweep.

The PR-level criterion, end to end: a fault-injected ``--jobs 2``
Figure 11a-style sweep must produce an event log whose merged counters
(runs, retries, cache hits) are identical to the same sweep run
serially, and ``repro-noise profile`` must render p50/p95/p99 run
latency and the span tree from that log alone.
"""

from __future__ import annotations

import pytest

from repro.analysis.sensitivity import sweep_delta_i_mappings
from repro.engine import ResultCache, SimulationSession
from repro.engine.executor import ProcessExecutor, SerialExecutor
from repro.engine.resilience import RetryPolicy
from repro.faults import FaultPlan
from repro.faults.harness import reset_fault_memo
from repro.machine.runner import RunOptions
from repro.obs import (
    EventLog,
    Telemetry,
    load_profile,
    render_profile,
    validate_event_log,
)

#: Transient faults: retry absorbs them, so both backends converge to
#: the same results while burning the same (per-run-key) extra attempts.
FAULTS = FaultPlan(seed=11, exception_rate=0.4)

#: The counters the acceptance criterion names, plus the worker-side
#: ones the multiprocess merge exists for.
COMPARED = (
    "engine.runs",
    "engine.runs_executed",
    "engine.retries",
    "engine.failures",
    "engine.cache.hits",
    "engine.cache.misses",
    "engine.solver.invocations",
)


def traced_fig11a_sweep(generator, chip, executor, log_path):
    """A reduced Figure 11a dataset sweep (every max-only distribution,
    one placement each), traced and fault-injected."""
    reset_fault_memo()
    telemetry = Telemetry()
    with EventLog(log_path) as log:
        telemetry.enable_tracing(events=log)
        session = SimulationSession(
            chip,
            RunOptions(segments=2, base_samples=1024),
            cache=ResultCache(telemetry=telemetry),
            executor=executor,
            retry=RetryPolicy(max_retries=3, backoff_base_s=0.0),
            faults=FAULTS,
            telemetry=telemetry,
        )
        with telemetry.span("campaign"):
            points = sweep_delta_i_mappings(
                generator, chip,
                placements_per_distribution=1,
                workload_filter=lambda dist: dist[1] == 0,
            ).run(session)
        telemetry.emit("campaign.completed", snapshot=telemetry.snapshot())
    return points, telemetry


@pytest.fixture(scope="module")
def traced_pair(generator, chip, tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-acceptance")
    serial = traced_fig11a_sweep(
        generator, chip, SerialExecutor(), root / "serial.jsonl"
    )
    pooled = traced_fig11a_sweep(
        generator, chip, ProcessExecutor(jobs=2), root / "jobs2.jsonl"
    )
    return root, serial, pooled


class TestParallelEqualsSerial:
    def test_merged_counters_identical(self, traced_pair):
        _, (_, serial), (_, pooled) = traced_pair
        assert serial.counter("engine.retries") > 0  # faults actually fired
        for name in COMPARED:
            assert pooled.counter(name) == serial.counter(name), name

    def test_results_identical(self, traced_pair):
        _, (serial_points, _), (pooled_points, _) = traced_pair
        assert [p.p2p_by_core for p in pooled_points] == [
            p.p2p_by_core for p in serial_points
        ]

    def test_event_logs_agree_and_validate(self, traced_pair):
        root, _, _ = traced_pair
        tallies = []
        for name in ("serial.jsonl", "jobs2.jsonl"):
            n_valid, errors = validate_event_log(root / name)
            assert errors == []
            assert n_valid > 0
            profile = load_profile(root / name)
            tallies.append(
                (
                    len(profile.completed_runs),
                    profile.cached,
                    profile.scheduled,
                    sum(
                        int(e.get("retries", 0))
                        for e in profile.events
                        if e["event"] == "run.retried"
                    ),
                )
            )
        assert tallies[0] == tallies[1]

    def test_profile_renders_percentiles_and_span_tree(self, traced_pair):
        root, _, _ = traced_pair
        text = render_profile(load_profile(root / "jobs2.jsonl"))
        assert "p50=" in text and "p95=" in text and "p99=" in text
        assert "-- span tree --" in text
        assert "campaign" in text and "session.execute" in text
