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
* :mod:`repro.plan.execute` — :func:`execute_plan`: run the plan
  through the engine (same cache, same fingerprints), so the figure
  drivers afterwards replay it from cache;
* :mod:`repro.plan.family` — :class:`FamilyCampaign` /
  :func:`execute_family`: the same pipeline fanned across a declarative
  chip family (one member plan per chip fingerprint, per-chip
  execution sessions).

A compiled plan fans out across processes or hosts through the lease
fleet (:mod:`repro.fleet`).  See DESIGN.md §9 for the plan model and
§12 for the fleet and its fold.
"""

from .execute import ExecutionReport, execute_plan, run_point_id
from .family import FamilyCampaign, FamilyMember, FamilyReport, execute_family
from .planner import CampaignPlan, UniqueRun
from .spec import PlannedRun, RunPlan, Sweep, chip_identity

__all__ = [
    "PlannedRun",
    "RunPlan",
    "Sweep",
    "chip_identity",
    "CampaignPlan",
    "UniqueRun",
    "ExecutionReport",
    "execute_plan",
    "run_point_id",
    "FamilyCampaign",
    "FamilyMember",
    "FamilyReport",
    "execute_family",
]
