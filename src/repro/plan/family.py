"""Family campaigns: one figure planned across a whole chip family.

A :class:`FamilyCampaign` is the plan-layer form of a
:class:`~repro.chips.ChipFamily` sweep: one deduplicated
:class:`~repro.plan.planner.CampaignPlan` **per member**, bound
together under the family name with aggregate accounting and a stable
family fingerprint.

Dedup semantics: run fingerprints embed the chip identity, so two
members can never share a run — dedup happens *within* each member
(cross-figure sharing still collapses there), and the family totals are
honest sums.

Execution (:func:`execute_family`) visits members in family order and
drives each member's plan through :func:`~repro.plan.execute.
execute_plan` on that member's chip — sessions are grouped by chip
fingerprint by construction, and the default member's execution is
byte-identical to a standalone single-chip run (same cache keys).  A
family fans out within each member's sessions (``--jobs``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..chips import ChipFamily, ChipSpec, build_chip
from ..engine.cache import ResultCache, global_cache
from ..engine.executor import Executor, make_executor
from ..engine.fingerprint import content_key
from ..engine.resilience import RetryPolicy
from ..errors import ConfigError
from ..obs import Telemetry, get_telemetry
from .execute import ExecutionReport, execute_plan
from .planner import CampaignPlan

__all__ = ["FamilyMember", "FamilyCampaign", "FamilyReport", "execute_family"]


@dataclass
class FamilyMember:
    """One family member's slice of a family campaign."""

    spec: ChipSpec
    #: Stable chip fingerprint digest (what serve rosters and session
    #: grouping key on).
    chip_digest: str
    plan: CampaignPlan

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass
class FamilyCampaign:
    """The merged plan of one experiment set across a chip family."""

    family: str
    members: list[FamilyMember] = field(default_factory=list)

    # -- construction ---------------------------------------------------
    @classmethod
    def compile(
        cls,
        family: ChipFamily,
        plan_for: Callable[[ChipSpec], CampaignPlan],
        members: Sequence[ChipSpec] | None = None,
    ) -> "FamilyCampaign":
        """Compile *plan_for* over every member of *family* (or the
        explicit *members* subset).  Refuses duplicate chip identities:
        two members naming the same silicon would double-execute it.
        """
        specs = tuple(members) if members is not None else family.members()
        if not specs:
            raise ConfigError(f"family {family.name!r} has no members")
        campaign = cls(family=family.name)
        seen: dict[str, str] = {}
        for spec in specs:
            digest = spec.fingerprint()
            if digest in seen:
                raise ConfigError(
                    f"family {family.name!r}: members {seen[digest]!r} and "
                    f"{spec.name!r} compile to the same chip"
                )
            seen[digest] = spec.name
            plan = plan_for(spec)
            if content_key(plan.chip_fp) != digest:
                raise ConfigError(
                    f"family {family.name!r}: plan for member {spec.name!r} "
                    "is bound to a different chip identity"
                )
            campaign.members.append(
                FamilyMember(spec=spec, chip_digest=digest, plan=plan)
            )
        return campaign

    # -- lookup ---------------------------------------------------------
    def member(self, name: str) -> FamilyMember:
        """The member a spec name (full or label-only) or chip digest
        addresses."""
        for entry in self.members:
            if name in (entry.name, entry.chip_digest):
                return entry
            if "/" in entry.name and entry.name.split("/", 1)[1] == name:
                return entry
        raise ConfigError(
            f"family campaign {self.family!r} has no member {name!r}; "
            f"members are {[entry.name for entry in self.members]}"
        )

    # -- accounting -----------------------------------------------------
    @property
    def total_requested(self) -> int:
        return sum(entry.plan.total_requested for entry in self.members)

    @property
    def total_unique(self) -> int:
        return sum(entry.plan.total_unique for entry in self.members)

    @property
    def dedup_savings(self) -> int:
        """Runs removed before execution.  All savings are *within*
        members: fingerprints embed chip identity, so cross-member
        sharing is impossible by construction."""
        return self.total_requested - self.total_unique

    def fingerprint(self) -> str:
        """Content address of the family campaign: the sorted
        ``(chip digest, member plan fingerprint)`` pairs — stable
        across processes, platforms and member order."""
        return content_key(
            sorted(
                (entry.chip_digest, entry.plan.fingerprint())
                for entry in self.members
            )
        )

    # -- reporting ------------------------------------------------------
    def summary(self) -> dict:
        """JSON-friendly digest (what ``repro-noise family plan``
        renders and the family export records)."""
        return {
            "family": self.family,
            "fingerprint": self.fingerprint(),
            "members": [
                {
                    "name": entry.name,
                    "chip": entry.chip_digest,
                    "spec": entry.spec.to_dict(),
                    "plan": entry.plan.summary(),
                }
                for entry in self.members
            ],
            "requested": self.total_requested,
            "unique": self.total_unique,
            "dedup_savings": self.dedup_savings,
        }

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class FamilyReport:
    """What executing a family campaign did, per member."""

    family: str
    fingerprint: str
    reports: dict[str, ExecutionReport] = field(default_factory=dict)

    @property
    def runs(self) -> int:
        return sum(report.runs for report in self.reports.values())

    @property
    def executed(self) -> int:
        return sum(report.executed for report in self.reports.values())

    @property
    def replayed(self) -> int:
        return sum(report.replayed for report in self.reports.values())

    @property
    def failed(self) -> int:
        return sum(report.failed for report in self.reports.values())

    def summary(self) -> dict:
        return {
            "family": self.family,
            "fingerprint": self.fingerprint,
            "runs": self.runs,
            "executed": self.executed,
            "replayed": self.replayed,
            "failed": self.failed,
            "members": {
                name: report.summary()
                for name, report in sorted(self.reports.items())
            },
        }


def execute_family(
    campaign: FamilyCampaign,
    *,
    cache: ResultCache | None = None,
    executor: Executor | None = None,
    jobs: int | None = None,
    retry: RetryPolicy | None = None,
    on_failure: str = "raise",
    telemetry: Telemetry | None = None,
) -> FamilyReport:
    """Execute *campaign* across every member.

    Members run in family order, one :func:`execute_plan` call each, on
    the member's memoized chip — execution sessions are therefore
    grouped by chip fingerprint, and all members share one result cache
    and one executor (run fingerprints embed the chip, so the shared
    cache cannot cross-contaminate).
    """
    telemetry = telemetry or get_telemetry()
    cache = cache if cache is not None else global_cache()
    if executor is None:
        executor = make_executor(jobs)

    family_fp = campaign.fingerprint()
    report = FamilyReport(family=campaign.family, fingerprint=family_fp)
    with telemetry.span(
        "family.execute",
        family=campaign.family,
        fingerprint=family_fp,
        members=len(campaign.members),
    ):
        for entry in campaign.members:
            chip = build_chip(entry.spec)
            report.reports[entry.name] = execute_plan(
                entry.plan,
                chip,
                cache=cache,
                executor=executor,
                retry=retry,
                on_failure=on_failure,
                telemetry=telemetry,
            )
    telemetry.emit("family.completed", **report.summary())
    return report
