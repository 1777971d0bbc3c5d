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

``repro-noise family run`` runs the experiment drivers once per member,
in family order, over that member's context; the default member's runs
are byte-identical to a standalone single-chip run (same cache keys).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..chips import ChipFamily, ChipSpec
from ..engine.fingerprint import content_key
from ..errors import ConfigError
from .planner import CampaignPlan

__all__ = ["FamilyMember", "FamilyCampaign"]


@dataclass
class FamilyMember:
    """One family member's slice of a family campaign."""

    spec: ChipSpec
    #: Stable chip fingerprint digest (what serve rosters key on and
    #: ``family-results.json`` records).
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
