"""Plan diff (``plan --since``): remaining runs vs a campaign manifest."""

from __future__ import annotations

from repro.engine import CampaignManifest
from repro.machine.chip import ChipConfig
from repro.machine.runner import RunOptions
from repro.plan import CampaignPlan, RunPlan, chip_identity
from repro.plan import run_point_id

from .conftest import square_wave

CHIP_FP = chip_identity(ChipConfig(), 0)
OPTIONS = RunOptions(segments=2)


def _campaign(core_counts=(1, 2, 3)) -> CampaignPlan:
    plan = RunPlan(chip_fp=CHIP_FP)
    for count in core_counts:
        mapping = [square_wave()] * count + [None] * (6 - count)
        plan.add(mapping, ("mapping", count), OPTIONS, "fig7a")
    return CampaignPlan.compile([plan])


class TestRemaining:
    def test_nothing_completed_everything_remains(self):
        campaign = _campaign()
        remaining = campaign.remaining(set())
        assert [e.fingerprint for e in remaining] == list(campaign.unique)

    def test_everything_completed_nothing_remains(self):
        campaign = _campaign()
        assert campaign.remaining(set(campaign.unique)) == []

    def test_partial_completion_preserves_first_request_order(self):
        campaign = _campaign()
        fingerprints = list(campaign.unique)
        remaining = campaign.remaining({fingerprints[1]})
        assert [e.fingerprint for e in remaining] == [
            fingerprints[0], fingerprints[2]
        ]

    def test_accepts_run_prefixed_point_ids(self):
        """Manifests checkpoint run-level completion as
        ``run:<fingerprint>`` — the diff must accept that form as-is."""
        campaign = _campaign()
        fingerprints = list(campaign.unique)
        remaining = campaign.remaining({run_point_id(fingerprints[0])})
        assert fingerprints[0] not in [e.fingerprint for e in remaining]
        assert len(remaining) == len(fingerprints) - 1

    def test_foreign_completions_ignored(self):
        campaign = _campaign()
        remaining = campaign.remaining({"run:deadbeef", "fig12"})
        assert len(remaining) == campaign.total_unique


class TestAgainstManifest:
    def test_manifest_completed_feeds_straight_in(self, tmp_path):
        """End-to-end shape of ``plan --since``: a manifest whose
        run-level checkpoints came from a (partial) shard execution."""
        campaign = _campaign()
        fingerprints = list(campaign.unique)
        manifest = CampaignManifest(tmp_path / "campaign-manifest.json")
        manifest.mark_started(run_point_id(fingerprints[0]))
        manifest.mark_complete(run_point_id(fingerprints[0]))
        # A started-but-unfinished run still counts as remaining.
        manifest.mark_started(run_point_id(fingerprints[1]))

        remaining = campaign.remaining(manifest.completed)
        assert [e.fingerprint for e in remaining] == [
            fingerprints[1], fingerprints[2]
        ]

    def test_experiment_level_completions_do_not_mask_runs(self, tmp_path):
        campaign = _campaign()
        manifest = CampaignManifest(tmp_path / "campaign-manifest.json")
        manifest.mark_started("fig7a")
        manifest.mark_complete("fig7a")  # experiment-level, not run-level
        assert len(campaign.remaining(manifest.completed)) == 3
