"""Family campaigns: per-member compilation, honest accounting, and
``family run`` executing each member's plan once.

Two constants are pinned as cross-PR regression guards: the quick
family's fig11a accounting and the default member's plan fingerprint.
The default member (``quick/cores6``) *is* the reference chip, so its
plan fingerprint must be byte-identical to the standalone single-chip
compile — that is the plan-layer face of default-chip cache-key
neutrality.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chips import ChipFamily, ChipSpec, get_family
from repro.errors import ConfigError
from repro.experiments import compile_campaign, compile_family_campaign
from repro.experiments.common import context_for_spec
from repro.machine.runner import RunOptions
from repro.obs import Telemetry, read_events, validate_event_log
from repro.obs import metrics as metrics_module
from repro.plan import CampaignPlan, FamilyCampaign, RunPlan

from ..smoke import counter
from .conftest import square_wave

#: ``quick/cores6`` fig11a plan fingerprint at the quick tier — equal to
#: the standalone single-chip compile by the neutrality guarantee.
DEFAULT_MEMBER_PLAN_FP = (
    "7712ec8c06900b26ad18d4086b7fe6e9848648616752bed52395f2ff9d33554f"
)
#: Unique runs per quick-family member for fig11a (cores4/cores6/cores8):
#: the ΔI placement count grows with the core count.
QUICK_FIG11A_UNIQUES = [27, 53, 87]


@pytest.fixture(scope="module")
def quick_campaign():
    return compile_family_campaign(["fig11a"], "quick", quick=True)


class TestQuickFamilyPins:
    def test_member_accounting(self, quick_campaign):
        assert [entry.name for entry in quick_campaign.members] == [
            "quick/cores4", "quick/cores6", "quick/cores8",
        ]
        assert [
            entry.plan.total_unique for entry in quick_campaign.members
        ] == QUICK_FIG11A_UNIQUES
        assert quick_campaign.total_unique == sum(QUICK_FIG11A_UNIQUES)

    def test_default_member_plan_matches_standalone(self, quick_campaign):
        """Neutrality: the family's reference member compiles to exactly
        the plan a standalone quick-tier compile produces."""
        (member,) = [
            entry for entry in quick_campaign.members
            if entry.name == "quick/cores6"
        ]
        assert member.plan.fingerprint() == DEFAULT_MEMBER_PLAN_FP
        context = context_for_spec(ChipSpec(), quick=True)
        standalone = compile_campaign(["fig11a"], context)
        assert standalone.fingerprint() == DEFAULT_MEMBER_PLAN_FP

    def test_cross_member_dedup_is_impossible(self, quick_campaign):
        """Run fingerprints embed chip identity, so family totals are
        honest sums — all dedup happens within members."""
        assert quick_campaign.total_unique == sum(
            entry.plan.total_unique for entry in quick_campaign.members
        )
        fingerprints = [
            fp
            for entry in quick_campaign.members
            for fp in entry.plan.unique
        ]
        assert len(fingerprints) == len(set(fingerprints))

    def test_fingerprint_is_member_order_independent(self, quick_campaign):
        family = get_family("quick")
        reversed_campaign = compile_family_campaign(
            ["fig11a"], family,
            quick=True, members=tuple(reversed(family.members())),
        )
        assert (
            reversed_campaign.fingerprint() == quick_campaign.fingerprint()
        )


CHEAP = RunOptions(segments=1, base_samples=64, events_cap=40)


def _tiny_plan_for(spec: ChipSpec) -> CampaignPlan:
    """Two cheap runs per member: a two-core pair and a full load."""
    plan = RunPlan(chip_fp=spec.identity())
    pair = [square_wave()] * 2 + [None] * (spec.n_cores - 2)
    plan.add(pair, ("pair",), CHEAP, "figX")
    plan.add([square_wave()] * spec.n_cores, ("full",), CHEAP, "figX")
    return CampaignPlan.compile([plan])


@pytest.fixture(scope="module")
def tiny_family():
    return ChipFamily(
        name="tiny",
        description="two cheap members for execution tests",
        axes=(("n_cores", (4, 6)),),
    )


class TestCompileValidation:
    def test_duplicate_silicon_refused(self, tiny_family):
        spec = ChipSpec(name="tiny/a", n_cores=4)
        twin = dataclasses.replace(spec, name="tiny/b")
        with pytest.raises(ConfigError, match="same chip"):
            FamilyCampaign.compile(
                tiny_family, _tiny_plan_for, members=(spec, twin)
            )

    def test_plan_bound_to_wrong_chip_refused(self, tiny_family):
        def wrong_chip_plan(spec: ChipSpec) -> CampaignPlan:
            return _tiny_plan_for(ChipSpec(n_cores=8))

        with pytest.raises(ConfigError, match="different chip"):
            FamilyCampaign.compile(tiny_family, wrong_chip_plan)

    def test_empty_member_list_refused(self, tiny_family):
        with pytest.raises(ConfigError, match="no members"):
            FamilyCampaign.compile(tiny_family, _tiny_plan_for, members=())


class TestExecuteFamily:
    """``family run`` on the CLI, in this process: a cold run executes
    each member's plan once, a warm one executes nothing, and a traced
    run leaves a log the schema check accepts."""

    MEMBERS = ("cores4", "cores6")

    def family_run(self, cli, *flags: str) -> int:
        """``family run quick fig7a`` over the two members, with the
        top-level *flags*; returns the runs the telemetry counted."""
        status, out, _ = cli(
            "--quick", *flags, "family", "run", "quick", "fig7a",
            "--members", ",".join(self.MEMBERS), "--profile",
        )
        assert status == 0
        return counter(out, "engine.runs_executed")

    def test_cold_then_warm(self, cli, monkeypatch):
        family = get_family("quick")
        campaign = compile_family_campaign(
            ["fig7a"], family, quick=True,
            members=[family.member(label) for label in self.MEMBERS],
        )
        assert self.family_run(cli) == campaign.total_unique
        monkeypatch.setattr(metrics_module, "_GLOBAL", Telemetry())
        assert self.family_run(cli) == 0

    def test_traced_run_writes_a_valid_log(self, cli, tmp_path):
        log = tmp_path / "events.jsonl"
        self.family_run(cli, "--trace-file", str(log))
        n_valid, errors = validate_event_log(log)
        assert errors == []
        assert n_valid > 0
        kinds = [event["event"] for event in read_events(log)]
        assert kinds.count("campaign.completed") == 1
        assert kinds.count("experiment.completed") == len(self.MEMBERS)
