"""Plan execution: the planner's dedup accounting is exactly what the
engine executes, and replays are free."""

from __future__ import annotations

import json

import pytest

from repro.engine import ResultCache
from repro.errors import ConfigError
from repro.experiments import compile_campaign
from repro.obs import Telemetry
from repro.plan import execute_plan

FIGURES = ["fig7a", "fig9", "fig11a"]


@pytest.fixture(scope="module")
def campaign(tiny_context):
    return compile_campaign(FIGURES, tiny_context)


class TestDedupEqualsExecuted:
    def test_mixed_campaign(self, campaign, tiny_context):
        """The acceptance property: on a cold cache, the engine executes
        exactly the planner's deduplicated run count — requested minus
        dedup savings — for the mixed fig7a+fig9+fig11a campaign."""
        assert campaign.dedup_savings > 0  # fig7a ⊂ fig9 must overlap
        telemetry = Telemetry()
        report = execute_plan(
            campaign,
            tiny_context.chip,
            cache=ResultCache(telemetry=telemetry),
            jobs=1,
            telemetry=telemetry,
        )
        assert report.runs == campaign.total_unique
        assert report.executed == campaign.total_unique
        assert report.executed == campaign.total_requested - campaign.dedup_savings
        assert report.replayed == 0
        assert report.failed == 0
        assert telemetry.counter("engine.runs_executed") == campaign.total_unique

    def test_second_execution_replays_everything(self, campaign, tiny_context):
        telemetry = Telemetry()
        cache = ResultCache(telemetry=telemetry)
        execute_plan(
            campaign, tiny_context.chip, cache=cache,
            jobs=1, telemetry=telemetry,
        )
        report = execute_plan(
            campaign, tiny_context.chip, cache=cache,
            jobs=1, telemetry=telemetry,
        )
        assert report.executed == 0
        assert report.replayed == campaign.total_unique


class TestByWorkerSummary:
    def test_fleet_accounting_rides_in_the_summary(self):
        from repro.plan.execute import ExecutionReport

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
        from repro.plan.execute import ExecutionReport

        summary = ExecutionReport(plan="p", runs=1).summary()
        assert "by_worker" not in summary
        assert "stolen" not in summary


class TestChipMismatch:
    def test_wrong_chip_refused(self, campaign):
        from repro.machine.chip import Chip, ChipConfig

        other = Chip(ChipConfig(), chip_id=99)
        with pytest.raises(ConfigError):
            execute_plan(campaign, other)
