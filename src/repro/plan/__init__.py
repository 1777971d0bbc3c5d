"""``repro.plan`` — the declarative run-plan layer.

The paper's characterization is one giant campaign: thousands of chip
runs shared across Figures 7–15.  This package turns the repo's
per-figure scripts into a schedulable campaign system by splitting the
pipeline into **plan → dedup → execute**:

* :mod:`repro.plan.spec` — :class:`PlannedRun` / :class:`RunPlan`:
  declarative, content-fingerprintable run specifications (what a
  figure *would* execute), and :class:`Sweep`: one study's runs
  declared once, which the experiment drivers yield and both planning
  and execution read;
* :mod:`repro.plan.planner` — :class:`CampaignPlan`: merge the plans
  of a multi-figure campaign and deduplicate identical runs *before*
  execution, so cross-figure sharing (Fig. 7a/9's frequency sweep,
  Fig. 11/13a's ΔI dataset) is explicit and countable;
  :func:`run_point_id` names a planned run in a campaign manifest;
* :mod:`repro.plan.family` — :class:`FamilyCampaign`: the same plan
  compiled across a declarative chip family (one member plan per chip
  fingerprint).

Execution is the drivers' own: they run their sweeps through the
context's session, and the planned runs are exactly what they execute
(so a campaign executes ``CampaignPlan.total_unique`` runs on a cold
cache).  A compiled plan fans out across processes or hosts through
the lease fleet (:mod:`repro.fleet`), whose workers execute the plan's
runs before ``repro-noise fleet`` exports the drivers' results from the
folded cache.  See DESIGN.md §9 for the plan model and §12 for the
fleet and its fold.
"""

from .family import FamilyCampaign, FamilyMember
from .planner import CampaignPlan, UniqueRun, run_point_id
from .spec import PlannedRun, RunPlan, Sweep, chip_identity

__all__ = [
    "PlannedRun",
    "RunPlan",
    "Sweep",
    "chip_identity",
    "CampaignPlan",
    "UniqueRun",
    "run_point_id",
    "FamilyCampaign",
    "FamilyMember",
]
