"""Experiment registry and the shared result record.

Each experiment driver may register two callables: the *executor*
(:func:`register`) that runs the experiment and renders its result, and
the *plan compiler* (:func:`register_plan`) that returns the
declarative :class:`~repro.plan.spec.RunPlan` of exactly the chip runs
the executor would issue.  :func:`compile_campaign` merges the plans of
a multi-figure campaign into one deduplicated
:class:`~repro.plan.planner.CampaignPlan` — the object the
``repro-noise plan`` dry-run reports on and ``repro-noise fleet``
leases out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import ExperimentError
from ..obs import get_telemetry
from ..plan import CampaignPlan, RunPlan
from .common import ExperimentContext, context_for_spec, default_context

__all__ = [
    "ExperimentResult",
    "register",
    "register_plan",
    "get_experiment",
    "all_experiments",
    "run_experiment",
    "compile_plan",
    "compile_campaign",
    "compile_family_campaign",
]


@dataclass
class ExperimentResult:
    """Outcome of one experiment driver.

    Attributes
    ----------
    experiment_id:
        Paper reference (``table1``, ``fig7a`` ...).
    title:
        Human-readable description.
    text:
        Rendered rows/series, printable as-is.
    data:
        Structured payload for programmatic checks (tests, EXPERIMENTS
        bookkeeping); contents are experiment specific.
    """

    experiment_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"== {self.experiment_id}: {self.title} ==\n{self.text}"


ExperimentFn = Callable[[ExperimentContext], ExperimentResult]
PlanFn = Callable[[ExperimentContext], RunPlan]

_REGISTRY: dict[str, tuple[str, ExperimentFn]] = {}
_PLANS: dict[str, PlanFn] = {}


def register(experiment_id: str, title: str):
    """Decorator registering an experiment driver under *experiment_id*."""

    def wrap(fn: ExperimentFn) -> ExperimentFn:
        if experiment_id in _REGISTRY:
            raise ExperimentError(f"duplicate experiment id {experiment_id!r}")

        @functools.wraps(fn)
        def timed(context: ExperimentContext) -> ExperimentResult:
            # Per-experiment wall clock, surfaced by ``run --profile``
            # and the exporter's telemetry artifact; under ``--trace``
            # also one span per experiment in the campaign's span tree.
            telemetry = get_telemetry()
            dropped_before = telemetry.counter("engine.points_dropped")
            with telemetry.span(f"experiment.{experiment_id}"):
                with telemetry.time(f"experiment.{experiment_id}.seconds"):
                    result = fn(context)
            dropped = (
                telemetry.counter("engine.points_dropped") - dropped_before
            )
            if dropped:
                # Collect-mode sweeps dropped failed points: mark the
                # count in the exported payload (the event log has the
                # per-point detail).
                result.data.setdefault("dropped_points", dropped)
            return result

        _REGISTRY[experiment_id] = (title, timed)
        return timed

    return wrap


def register_plan(experiment_id: str):
    """Decorator registering an experiment's *plan compiler*: a
    function returning the :class:`RunPlan` of exactly the chip runs
    the registered executor would issue (same mappings, same tags, same
    options — fingerprint-identical, which is what makes planner dedup
    counts match execution counts)."""

    def wrap(fn: PlanFn) -> PlanFn:
        if experiment_id in _PLANS:
            raise ExperimentError(
                f"duplicate plan compiler for {experiment_id!r}"
            )
        _PLANS[experiment_id] = fn
        return fn

    return wrap


def compile_plan(
    experiment_id: str, context: ExperimentContext | None = None
) -> RunPlan:
    """The declarative run plan of one experiment, attributed to its
    id.  Experiments without chip runs (``fig7b``, ``fig13b``,
    ``table1`` — pure analysis of the platform) compile to an empty
    plan."""
    _ensure_loaded()
    if experiment_id not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        )
    context = context or default_context()
    compiler = _PLANS.get(experiment_id)
    if compiler is None:
        return RunPlan.for_chip(context.chip)
    return compiler(context).tagged(experiment_id)


def compile_campaign(
    experiment_ids: Sequence[str],
    context: ExperimentContext | None = None,
) -> CampaignPlan:
    """Merge the plans of *experiment_ids* into one deduplicated
    campaign plan (shared runs — e.g. Fig. 7a/9's unsynchronized
    frequency sweep, Fig. 11/13a's ΔI dataset — collapse here, before
    execution)."""
    context = context or default_context()
    with get_telemetry().span(
        "plan.compile", experiments=list(experiment_ids)
    ):
        plans = [compile_plan(eid, context) for eid in experiment_ids]
        return CampaignPlan.compile(plans)


def compile_family_campaign(
    experiment_ids: Sequence[str],
    family,
    *,
    quick: bool = False,
    members: Sequence | None = None,
):
    """Compile *experiment_ids* across every member of a chip *family*
    (a :class:`~repro.chips.ChipFamily` or a builtin family name).

    Each member gets its own spec-parameterized context (same fidelity
    tier for all members) and its own deduplicated
    :class:`CampaignPlan`; the result is the
    :class:`~repro.plan.FamilyCampaign` the family CLI verb plans and
    executes.  The reference member's plan is fingerprint-
    identical to what :func:`compile_campaign` produces standalone.
    """
    from ..chips import get_family
    from ..plan import FamilyCampaign

    if isinstance(family, str):
        family = get_family(family)

    def plan_for(spec) -> CampaignPlan:
        context = context_for_spec(spec, quick=quick)
        plans = [compile_plan(eid, context) for eid in experiment_ids]
        return CampaignPlan.compile(plans)

    with get_telemetry().span(
        "plan.compile_family",
        family=family.name,
        experiments=list(experiment_ids),
    ):
        return FamilyCampaign.compile(family, plan_for, members=members)


def _ensure_loaded() -> None:
    # Import the driver modules for their registration side effects.
    from . import (  # noqa: F401
        ctrl, table1, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14,
        fig15,
    )


def all_experiments() -> dict[str, str]:
    """Mapping of experiment id → title."""
    _ensure_loaded()
    return {eid: title for eid, (title, _) in sorted(_REGISTRY.items())}


def get_experiment(experiment_id: str) -> ExperimentFn:
    """The driver function for *experiment_id*."""
    _ensure_loaded()
    try:
        return _REGISTRY[experiment_id][1]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def run_experiment(
    experiment_id: str, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Run one experiment (building the default context if needed)."""
    driver = get_experiment(experiment_id)
    return driver(context or default_context())
