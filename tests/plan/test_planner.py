"""Campaign planner: merge, dedup accounting, wall-clock estimate."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.machine.chip import ChipConfig
from repro.machine.runner import RunOptions
from repro.plan import CampaignPlan, RunPlan, chip_identity

from .conftest import square_wave

CHIP_FP = chip_identity(ChipConfig(), 0)
OPTIONS = RunOptions(segments=2)


def _plan(figure: str, core_counts: list[int]) -> RunPlan:
    """One run per entry, loading that many cores (distinct mappings →
    distinct fingerprints; tags alone would not differentiate
    deterministic runs)."""
    plan = RunPlan(chip_fp=CHIP_FP)
    for count in core_counts:
        mapping = [square_wave()] * count + [None] * (6 - count)
        plan.add(mapping, ("mapping", count), OPTIONS, figure)
    return plan


class TestCompileAndDedup:
    def test_shared_runs_collapse(self):
        a = _plan("fig7a", [1, 2])
        b = _plan("fig9", [2, 3])  # the 2-core run is shared with fig7a
        campaign = CampaignPlan.compile([a, b])
        assert campaign.total_requested == 4
        assert campaign.total_unique == 3
        assert campaign.dedup_savings == 1
        shared = [
            entry
            for entry in campaign.unique.values()
            if entry.figures == {"fig7a", "fig9"}
        ]
        assert len(shared) == 1 and shared[0].requests == 2

    def test_summary_accounting(self):
        campaign = CampaignPlan.compile(
            [_plan("fig7a", [1, 2]), _plan("fig9", [2, 3])]
        )
        summary = campaign.summary()
        assert summary["requested_by_figure"] == {"fig7a": 2, "fig9": 2}
        assert summary["unique_by_figure"] == {"fig7a": 2, "fig9": 2}
        assert summary["exclusive_by_figure"] == {"fig7a": 1, "fig9": 1}
        assert summary["requested"] == 4
        assert summary["unique"] == 3
        assert summary["dedup_savings"] == 1

    def test_empty_campaign_refused(self):
        with pytest.raises(ConfigError):
            CampaignPlan.compile([])

    def test_mixed_chips_refused(self):
        other = RunPlan(chip_fp=chip_identity(ChipConfig(), 1))
        with pytest.raises(ConfigError):
            CampaignPlan.compile([_plan("fig7a", [1]), other])

    def test_fingerprint_independent_of_merge_order(self):
        a, b = _plan("fig7a", [1, 2]), _plan("fig9", [2, 3])
        assert (
            CampaignPlan.compile([a, b]).fingerprint()
            == CampaignPlan.compile([b, a]).fingerprint()
        )

    def test_estimate_seconds(self):
        campaign = CampaignPlan.compile([_plan("fig7a", [1, 2])])
        assert campaign.estimate_seconds(None) is None
        assert campaign.estimate_seconds(3.0) == pytest.approx(6.0)
        assert campaign.estimate_seconds(3.0, jobs=4) == pytest.approx(1.5)

    def test_estimate_seconds_scales_by_fleet_size(self):
        campaign = CampaignPlan.compile([_plan("fig7a", [1, 2])])
        assert campaign.estimate_seconds(3.0, workers=2) == pytest.approx(3.0)
        # Fleet workers run serially: the fleet size alone divides.
        assert campaign.estimate_seconds(
            3.0, jobs=2, workers=3
        ) == pytest.approx(2.0)
        # Degenerate sizes clamp to serial rather than dividing by zero.
        assert campaign.estimate_seconds(3.0, workers=0) == pytest.approx(6.0)
