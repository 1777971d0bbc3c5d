"""The plan is what the drivers execute: the planner's dedup accounting
is exactly what running the drivers executes, and replays are free."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.engine import ResultCache, SimulationSession
from repro.experiments import compile_campaign, get_experiment
from repro.obs import Telemetry

FIGURES = ["fig7a", "fig9", "fig11a"]


@pytest.fixture(scope="module")
def campaign(tiny_context):
    return compile_campaign(FIGURES, tiny_context)


def run_drivers(tiny_context, cache: ResultCache, telemetry: Telemetry):
    """Run every figure's driver over *tiny_context*, with its session
    on *cache*."""
    context = replace(tiny_context, _session=SimulationSession(
        tiny_context.chip, tiny_context.options,
        cache=cache, jobs=1, telemetry=telemetry,
    ))
    return [get_experiment(figure)(context) for figure in FIGURES]


class TestDedupEqualsExecuted:
    def test_mixed_campaign(self, campaign, tiny_context):
        """The acceptance property: on a cold cache, the drivers execute
        exactly the planner's deduplicated run count — requested minus
        dedup savings — for the mixed fig7a+fig9+fig11a campaign."""
        assert campaign.dedup_savings > 0  # fig7a ⊂ fig9 must overlap
        telemetry = Telemetry()
        results = run_drivers(
            tiny_context, ResultCache(telemetry=telemetry), telemetry
        )
        assert [result.experiment_id for result in results] == FIGURES
        executed = telemetry.counter("engine.runs_executed")
        assert telemetry.counter("engine.runs") == campaign.total_requested
        assert executed == campaign.total_unique
        assert executed == campaign.total_requested - campaign.dedup_savings
        # Every run the drivers asked for again was a replay of one of
        # these, and none failed.
        assert telemetry.counter("engine.cache.hits") == (
            campaign.dedup_savings
        )
        assert telemetry.counter("engine.failures") == 0

    def test_second_execution_replays_everything(self, campaign, tiny_context):
        telemetry = Telemetry()
        cache = ResultCache(telemetry=telemetry)
        run_drivers(tiny_context, cache, telemetry)
        executed = telemetry.counter("engine.runs_executed")
        hits = telemetry.counter("engine.cache.hits")
        run_drivers(tiny_context, cache, telemetry)
        assert telemetry.counter("engine.runs_executed") == executed
        assert telemetry.counter("engine.cache.hits") - hits == (
            campaign.total_requested
        )


class TestByWorkerSummary:
    def test_fleet_accounting_rides_in_the_summary(self):
        from repro.fleet.dispatcher import ExecutionReport

        report = ExecutionReport(
            plan="p", runs=4, executed=4,
            by_worker={
                "w1": {"completed": 1, "stolen": 1, "failed": 0},
                "w0": {"completed": 3, "stolen": 0, "failed": 0},
            },
        )
        summary = report.summary()
        assert list(summary["by_worker"]) == ["w0", "w1"]  # sorted
        assert summary["stolen"] == 1
        assert json.loads(json.dumps(summary)) == summary

    def test_single_process_summary_stays_lean(self):
        from repro.fleet.dispatcher import ExecutionReport

        summary = ExecutionReport(plan="p", runs=1).summary()
        assert "by_worker" not in summary
        assert "stolen" not in summary
