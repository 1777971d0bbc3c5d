"""Experiment registry and the shared result record.

A driver with chip runs is a generator: it yields its
:class:`~repro.plan.spec.Sweep` (or a tuple of them) exactly once,
receives the sweeps' values, and returns its
:class:`ExperimentResult`.  Drivers without runs (``table1``,
``fig7b``, ``fig13b``) are plain functions.  Both planning and
execution read that one yield: :func:`compile_plan` advances a driver
to it and builds the :class:`~repro.plan.spec.RunPlan` without
executing anything, and the registered callable runs the sweeps
through the context's session and sends their values back.
:func:`compile_campaign` merges the plans of a multi-figure campaign
into one deduplicated :class:`~repro.plan.planner.CampaignPlan` — the
object the ``repro-noise plan`` dry-run reports on and ``repro-noise
fleet`` leases out.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import ExperimentError
from ..obs import get_telemetry
from ..plan import CampaignPlan, RunPlan
from ..plan.spec import Sweep
from .common import ExperimentContext, context_for_spec, default_context

__all__ = [
    "ExperimentResult",
    "register",
    "get_experiment",
    "all_experiments",
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

#: experiment id → (title, executing callable, driver as written).
_REGISTRY: dict[str, tuple[str, ExperimentFn, Callable]] = {}


def _sweeps(yielded) -> tuple[Sweep, ...]:
    return yielded if isinstance(yielded, tuple) else (yielded,)


def _drive(experiment_id: str, fn: Callable, context: ExperimentContext):
    """Run driver *fn*: execute the sweeps of its one yield through
    the context's session and send their values back."""
    if not inspect.isgeneratorfunction(fn):
        return fn(context)
    driver = fn(context)
    try:
        yielded = next(driver)
        session = context.session
        values = tuple(sweep.run(session) for sweep in _sweeps(yielded))
        driver.send(values if isinstance(yielded, tuple) else values[0])
    except StopIteration as done:
        return done.value
    finally:
        driver.close()
    raise ExperimentError(
        f"experiment {experiment_id!r} yielded its sweeps more than once"
    )


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
                    result = _drive(experiment_id, fn, context)
            dropped = (
                telemetry.counter("engine.points_dropped") - dropped_before
            )
            if dropped:
                # Collect-mode sweeps dropped failed points: mark the
                # count in the exported payload (the event log has the
                # per-point detail).
                result.data.setdefault("dropped_points", dropped)
            return result

        _REGISTRY[experiment_id] = (title, timed, fn)
        return timed

    return wrap


def compile_plan(
    experiment_id: str, context: ExperimentContext | None = None
) -> RunPlan:
    """The declarative run plan of one experiment, attributed to its
    id: the runs of the sweeps its driver yields, read without
    executing anything.  Experiments without chip runs (``fig7b``,
    ``fig13b``, ``table1`` — pure analysis of the platform) compile to
    an empty plan."""
    fn = _entry(experiment_id)[2]
    context = context or default_context()
    plan = RunPlan.for_chip(context.chip)
    if inspect.isgeneratorfunction(fn):
        driver = fn(context)
        yielded = next(driver)
        driver.close()
        for sweep in _sweeps(yielded):
            plan.extend(sweep.plan(context.chip, context.options))
    return plan.tagged(experiment_id)


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
    return {eid: entry[0] for eid, entry in sorted(_REGISTRY.items())}


def _entry(experiment_id: str) -> tuple[str, ExperimentFn, Callable]:
    _ensure_loaded()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def get_experiment(experiment_id: str) -> ExperimentFn:
    """The driver function for *experiment_id*."""
    return _entry(experiment_id)[1]
