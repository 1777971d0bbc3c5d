"""Plan execution: run a compiled campaign plan.

This is the "execute" stage of plan → dedup → execute.  It takes the
deduplicated :class:`~repro.plan.planner.CampaignPlan` and drives its
unique runs through :class:`SimulationSession` — same cache, same
fingerprints, same retry policy as the imperative path, so executing a
plan is purely a cache-warming transformation: the figure drivers that
run afterwards replay every run from cache and export bit-identical
results.  Fanning a plan out across processes or hosts is the fleet's
job (:mod:`repro.fleet`), which reuses :func:`run_point_id` and
:class:`ExecutionReport`.

Runs are grouped by their (canonicalized) :class:`RunOptions` — one
session per distinct options set, all sharing one cache/executor — so a
plan mixing, say, Fig. 8's waveform-collecting runs with ordinary sweep
runs executes each under the options it was planned with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.cache import ResultCache, global_cache
from ..engine.executor import Executor, make_executor
from ..engine.fingerprint import canonical
from ..engine.resilience import RetryPolicy, RunFailure
from ..engine.session import SimulationSession
from ..errors import ConfigError
from ..machine.chip import Chip
from ..obs import Telemetry, get_telemetry
from .planner import CampaignPlan, UniqueRun
from .spec import chip_identity

__all__ = ["ExecutionReport", "execute_plan", "run_point_id"]


def run_point_id(fingerprint: str) -> str:
    """Manifest point id of one planned run (run-level checkpoints live
    in the same namespace as experiment-level points, prefixed apart)."""
    return f"run:{fingerprint}"


@dataclass
class ExecutionReport:
    """What executing a plan actually did."""

    plan: str                      # campaign plan fingerprint
    runs: int                      # unique runs in the plan
    executed: int = 0              # solved now (cache misses)
    replayed: int = 0              # served from cache
    failed: int = 0                # exhausted their retry budget
    results: dict = field(default_factory=dict)  # fingerprint -> result
    #: Per-worker accounting for fleet executions: worker id →
    #: {"completed", "stolen", "failed"} (see
    #: :meth:`CampaignManifest.fleet_accounting`).  Empty for
    #: single-process executions.
    by_worker: dict = field(default_factory=dict)

    def summary(self) -> dict:
        summary = {
            "plan": self.plan,
            "runs": self.runs,
            "executed": self.executed,
            "replayed": self.replayed,
            "failed": self.failed,
        }
        if self.by_worker:
            summary["by_worker"] = {
                worker: dict(tally)
                for worker, tally in sorted(self.by_worker.items())
            }
            summary["stolen"] = sum(
                tally.get("stolen", 0) for tally in self.by_worker.values()
            )
        return summary


def execute_plan(
    campaign: CampaignPlan,
    chip: Chip,
    *,
    cache: ResultCache | None = None,
    executor: Executor | None = None,
    jobs: int | None = None,
    retry: RetryPolicy | None = None,
    on_failure: str = "raise",
    telemetry: Telemetry | None = None,
) -> ExecutionReport:
    """Execute every unique run of *campaign* on *chip*."""
    if chip_identity(chip.config, chip.chip_id) != campaign.chip_fp:
        raise ConfigError(
            "chip does not match the campaign plan's chip identity"
        )
    telemetry = telemetry or get_telemetry()
    cache = cache if cache is not None else global_cache()
    if executor is None:
        executor = make_executor(jobs)

    runs = list(campaign.unique.values())
    plan_fp = campaign.fingerprint()
    report = ExecutionReport(plan=plan_fp, runs=len(runs))

    telemetry.emit("plan.compiled", **campaign.summary())
    with telemetry.span("plan.execute", plan=plan_fp, runs=len(runs)):
        executed_before = telemetry.counter("engine.runs_executed")
        for group in _group_by_options(runs).values():
            session = SimulationSession(
                chip,
                group[0].run.options,
                cache=cache,
                executor=executor,
                retry=retry,
                on_failure=on_failure,
                telemetry=telemetry,
            )
            results = session.run_many(
                [list(entry.run.mapping) for entry in group],
                [entry.run.tag for entry in group],
            )
            for entry, result in zip(group, results):
                report.results[entry.fingerprint] = result
                if isinstance(result, RunFailure):
                    report.failed += 1
        report.executed = (
            telemetry.counter("engine.runs_executed") - executed_before
        )
        report.replayed = report.runs - report.executed - report.failed
    return report


def _group_by_options(runs: list[UniqueRun]) -> dict[str, list[UniqueRun]]:
    """Group plan entries by canonicalized options, preserving
    first-occurrence order (both across and within groups)."""
    groups: dict[str, list[UniqueRun]] = {}
    for entry in runs:
        groups.setdefault(canonical(entry.run.options), []).append(entry)
    return groups
