"""Plan execution: run a (shard of a) compiled campaign plan.

This is the "execute" stage of plan → dedup → shard → execute.  It
takes the deduplicated :class:`~repro.plan.planner.CampaignPlan`, slices
it with an optional :class:`~repro.plan.shard.ShardSpec`, and drives the
remaining unique runs through :class:`SimulationSession` — same cache,
same fingerprints, same retry policy as the imperative path, so a shard
execution is purely a cache-warming transformation: once every shard's
disk cache and manifest are merged, re-running the unsharded campaign
replays 100% from cache and produces bit-identical exports.

Runs are grouped by their (canonicalized) :class:`RunOptions` — one
session per distinct options set, all sharing one cache/executor — so a
plan mixing, say, Fig. 8's waveform-collecting runs with ordinary sweep
runs executes each under the options it was planned with.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

from ..engine.campaign import CampaignManifest
from ..engine.cache import ResultCache, global_cache
from ..engine.executor import Executor, make_executor
from ..engine.fingerprint import canonical
from ..engine.resilience import RetryPolicy, RunFailure
from ..engine.session import SimulationSession
from ..errors import ConfigError
from ..machine.chip import Chip
from ..obs import Telemetry, get_telemetry
from .planner import CampaignPlan, UniqueRun
from .shard import ShardSpec
from .spec import chip_identity

__all__ = ["ExecutionReport", "execute_plan", "run_point_id"]


def run_point_id(fingerprint: str) -> str:
    """Manifest point id of one planned run (run-level checkpoints live
    in the same namespace as experiment-level points, prefixed apart)."""
    return f"run:{fingerprint}"


@dataclass
class ExecutionReport:
    """What executing a plan slice actually did."""

    plan: str                      # campaign plan fingerprint
    shard: str | None              # "i/N", or None for the full plan
    runs: int                      # unique runs this slice owns
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
            "shard": self.shard,
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
    shard: ShardSpec | None = None,
    cache: ResultCache | None = None,
    executor: Executor | str | None = None,
    jobs: int | None = None,
    retry: RetryPolicy | None = None,
    on_failure: str = "raise",
    manifest: CampaignManifest | None = None,
    telemetry: Telemetry | None = None,
) -> ExecutionReport:
    """Execute the slice of *campaign* owned by *shard* (the whole plan
    when ``shard`` is ``None``) on *chip*.

    With a *manifest*, execution runs under the manifest writer lock
    (a second live writer to the same path is refused), binds the
    campaign identity into the manifest, and checkpoints run-level
    completion points batch-wise — the durable record the shard-merge
    step folds together.
    """
    if chip_identity(chip.config, chip.chip_id) != campaign.chip_fp:
        raise ConfigError(
            "chip does not match the campaign plan's chip identity"
        )
    telemetry = telemetry or get_telemetry()
    cache = cache if cache is not None else global_cache()
    if isinstance(executor, (str, type(None))):
        executor = make_executor(executor, jobs)

    slice_runs = campaign.shard(shard)
    plan_fp = campaign.fingerprint()
    shard_label = str(shard) if shard is not None else None
    report = ExecutionReport(
        plan=plan_fp, shard=shard_label, runs=len(slice_runs)
    )

    telemetry.emit("plan.compiled", **campaign.summary())
    telemetry.emit(
        "shard.started",
        plan=plan_fp,
        shard=shard_label,
        runs=len(slice_runs),
    )
    with ExitStack() as stack:
        if manifest is not None:
            stack.enter_context(manifest.writer_lock())
            manifest.bind_campaign({"plan": plan_fp, "shard": shard_label})
        stack.enter_context(
            telemetry.span(
                "plan.execute",
                plan=plan_fp,
                shard=shard_label or "full",
                runs=len(slice_runs),
            )
        )
        executed_before = telemetry.counter("engine.runs_executed")
        for group in _group_by_options(slice_runs).values():
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
            finished = []
            for entry, result in zip(group, results):
                report.results[entry.fingerprint] = result
                if isinstance(result, RunFailure):
                    report.failed += 1
                else:
                    finished.append(run_point_id(entry.fingerprint))
            if manifest is not None:
                manifest.mark_many_complete(finished)
        report.executed = (
            telemetry.counter("engine.runs_executed") - executed_before
        )
        report.replayed = report.runs - report.executed - report.failed
        if manifest is not None:
            manifest.mark_complete(
                f"shard:{shard_label or 'full'}", meta=report.summary()
            )
    telemetry.emit("shard.completed", **report.summary())
    return report


def _group_by_options(runs: list[UniqueRun]) -> dict[str, list[UniqueRun]]:
    """Group plan entries by canonicalized options, preserving
    first-occurrence order (both across and within groups)."""
    groups: dict[str, list[UniqueRun]] = {}
    for entry in runs:
        groups.setdefault(canonical(entry.run.options), []).append(entry)
    return groups
