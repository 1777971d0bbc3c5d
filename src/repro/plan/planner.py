"""The campaign planner: merge figure plans, dedup before execution.

The paper's characterization is one giant campaign — thousands of chip
runs shared across Figures 7–15.  The engine cache already deduplicates
those runs *after* fingerprinting at lookup time; the planner makes the
sharing explicit and inspectable **before** execution: merge the
:class:`~repro.plan.spec.RunPlan` of every requested figure, key the
union by content fingerprint, and the Fig. 7a/9 frequency-sweep sharing
and the Fig. 11/13a ΔI-dataset sharing fall out as countable dedup
savings instead of cache accidents.

The merged :class:`CampaignPlan` is what the executor runs and the
fleet leases out; its summary is what ``repro-noise plan`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..engine.fingerprint import content_key
from ..errors import ConfigError
from .spec import PlannedRun, RunPlan

__all__ = ["UniqueRun", "CampaignPlan", "run_point_id"]


def run_point_id(fingerprint: str) -> str:
    """Manifest point id of one planned run (run-level checkpoints live
    in the same namespace as experiment-level points, prefixed apart)."""
    return f"run:{fingerprint}"


@dataclass
class UniqueRun:
    """One deduplicated run of a campaign: the first-seen spec, the
    set of figures consuming it, and how many planned runs collapsed
    into it."""

    fingerprint: str
    run: PlannedRun
    figures: set[str] = field(default_factory=set)
    requests: int = 0


@dataclass
class CampaignPlan:
    """The merged, deduplicated plan of a multi-figure campaign.

    ``unique`` preserves first-request order, so executing a campaign
    plan visits runs in the order the figures would have issued them —
    cache warm-up locality is preserved.
    """

    chip_fp: str
    unique: dict[str, UniqueRun] = field(default_factory=dict)
    requested_by_figure: dict[str, int] = field(default_factory=dict)

    # -- construction ---------------------------------------------------
    @classmethod
    def compile(cls, plans: Sequence[RunPlan]) -> "CampaignPlan":
        """Merge per-figure plans into one deduplicated campaign."""
        if not plans:
            raise ConfigError("cannot compile an empty campaign plan")
        chip_fps = {plan.chip_fp for plan in plans}
        if len(chip_fps) > 1:
            raise ConfigError(
                "campaign plans must share one chip identity "
                f"(got {len(chip_fps)} distinct chips)"
            )
        campaign = cls(chip_fp=plans[0].chip_fp)
        for plan in plans:
            campaign.merge(plan)
        return campaign

    def merge(self, plan: RunPlan) -> None:
        """Fold one figure plan into the campaign."""
        if plan.chip_fp != self.chip_fp:
            raise ConfigError("cannot merge a plan for a different chip")
        for run in plan.runs:
            for figure in run.figures or ("",):
                if figure:
                    self.requested_by_figure[figure] = (
                        self.requested_by_figure.get(figure, 0) + 1
                    )
            key = run.fingerprint(self.chip_fp)
            entry = self.unique.get(key)
            if entry is None:
                entry = self.unique[key] = UniqueRun(
                    fingerprint=key, run=run
                )
            entry.figures.update(run.figures)
            entry.requests += 1

    # -- accounting -----------------------------------------------------
    @property
    def total_requested(self) -> int:
        """Planned runs before dedup (what the figures would issue)."""
        return sum(entry.requests for entry in self.unique.values())

    @property
    def total_unique(self) -> int:
        """Runs the campaign actually has to execute."""
        return len(self.unique)

    @property
    def dedup_savings(self) -> int:
        """Runs the planner removed before execution."""
        return self.total_requested - self.total_unique

    def fingerprint(self) -> str:
        """Content address of the deduplicated campaign (sorted run
        fingerprints over the chip identity) — the identity recorded in
        campaign manifests so the fleet fold can refuse mixed
        campaigns, stable across processes and platforms."""
        return content_key(self.chip_fp, sorted(self.unique))

    def remaining(self, completed: Iterable[str]) -> list[UniqueRun]:
        """The unique runs *not* yet in *completed*, in first-request
        order (``repro-noise plan --since <manifest>``).

        *completed* holds finished point ids as a campaign manifest
        records them — either the bare run fingerprint or the
        ``run:<fingerprint>`` form fleet workers checkpoint — so a
        manifest's ``completed`` set can be passed straight in.
        """
        done = set()
        for point in completed:
            done.add(point)
            if isinstance(point, str) and point.startswith("run:"):
                done.add(point[len("run:"):])
        return [
            entry
            for entry in self.unique.values()
            if entry.fingerprint not in done
            and run_point_id(entry.fingerprint) not in done
        ]

    # -- reporting ------------------------------------------------------
    def estimate_seconds(
        self,
        mean_run_s: float | None,
        jobs: int = 1,
        workers: int = 1,
    ) -> float | None:
        """Estimated cold wall-clock of this campaign, from a measured
        mean per-run latency (the ``engine.run.seconds``
        histogram of a previous campaign); ``None`` without a baseline.
        *jobs* is intra-process parallelism, *workers* the fleet size.
        Fleet workers always run serially, so a fleet of W > 1 workers
        divides the serial wall clock by W and *jobs* applies only
        without one (leases are cheap next to a run, so the
        ideal-speedup model stays honest enough for an ETA).
        """
        if mean_run_s is None:
            return None
        parallelism = workers if workers > 1 else max(jobs, 1)
        return self.total_unique * mean_run_s / parallelism

    def summary(self) -> dict:
        """JSON-friendly digest (what ``repro-noise plan`` renders)."""
        unique_by_figure: dict[str, int] = {}
        exclusive_by_figure: dict[str, int] = {}
        for entry in self.unique.values():
            for figure in sorted(entry.figures):
                unique_by_figure[figure] = unique_by_figure.get(figure, 0) + 1
            if len(entry.figures) == 1:
                (figure,) = entry.figures
                exclusive_by_figure[figure] = (
                    exclusive_by_figure.get(figure, 0) + 1
                )
        return {
            "plan": self.fingerprint(),
            "figures": sorted(self.requested_by_figure),
            "requested_by_figure": dict(
                sorted(self.requested_by_figure.items())
            ),
            "unique_by_figure": dict(sorted(unique_by_figure.items())),
            "exclusive_by_figure": dict(sorted(exclusive_by_figure.items())),
            "requested": self.total_requested,
            "unique": self.total_unique,
            "dedup_savings": self.dedup_savings,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CampaignPlan(unique={self.total_unique}, "
            f"requested={self.total_requested})"
        )
