"""The shared run-session layer: one instrumented hot path for every
simulation sweep.

A :class:`SimulationSession` binds a chip and one set of
:class:`RunOptions` and exposes :meth:`run` / :meth:`run_many`.  Every
consumer layer — the experiment drivers, the §V sensitivity sweeps, the
exhaustive mapping enumeration, the Vmin protocol, the mitigation
mechanisms — executes runs through a session instead of constructing
:class:`ChipRunner`s directly.  The session adds, around the raw
runner:

* **content-addressed caching** — each run's fingerprint (chip netlist
  + variation seed, per-core program signatures, run options, phase
  seed where applicable) addresses a shared two-tier
  :class:`ResultCache`, so identical configurations are solved once per
  campaign (and once per machine, with the disk tier);
* **one solve path** — every run solves through the chip's
  :class:`~repro.pdn.kernels.CompiledChipKernel`, compiled once per
  chip before the first dispatch (a chip that does not compile raises
  the kernel's :class:`~repro.errors.SolverError`);
* **parallel fan-out** — :meth:`run_many` dispatches cache misses in
  contiguous chunks over a process pool when more than one job is
  requested (``--jobs``/``$REPRO_JOBS``), rebuilding the chip once per
  worker;
* **fault isolation** — every run executes under a
  :class:`~repro.engine.resilience.RetryPolicy` (bounded retry with
  backoff, optional per-run timeout); a run that still fails surfaces
  as a structured :class:`~repro.engine.resilience.RunFailure` and, by
  default, one consolidated :class:`~repro.errors.ExecutionError` — a
  crashing worker never takes the rest of the batch down with it, and
  a broken process pool degrades to serial execution;
* **checkpointing** — finished runs are flushed to the (atomic-write)
  disk cache *as they complete*, not at batch end, so a campaign
  killed midway resumes by replaying the finished points and
  recomputing only the rest;
* **telemetry** — run counts, cache hits/misses, retry/failure/
  degradation counters, solver-call counts and solver wall-clock,
  surfaced by ``repro-noise run --profile`` and the experiment
  exporter.

Fault injection (``$REPRO_FAULTS`` or an explicit ``faults=`` plan)
wraps the session executor in a
:class:`~repro.faults.FaultyExecutor`, which is how the engine's test
suite and the CI fault-injection job prove all of the above.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import replace
from typing import Sequence

from ..errors import ConfigError, ExecutionError
from ..machine.chip import Chip
from ..machine.runner import ChipRunner, RunOptions, RunResult
from ..machine.workload import CurrentProgram, is_deterministic_mapping
from ..obs import Telemetry, get_telemetry
from .cache import ResultCache, global_cache
from .executor import Executor, make_executor
from .fingerprint import chip_fingerprint, run_fingerprint
from .resilience import RetryPolicy, RunFailure

__all__ = ["SimulationSession"]

Mapping = Sequence[CurrentProgram | None]

#: ``on_failure`` modes: raise one consolidated ExecutionError, or
#: return RunFailure records in the results.
FAILURE_MODES = ("raise", "collect")

_UNSET = object()


class SimulationSession:
    """Cached, instrumented, fault-tolerant, parallelizable execution
    of mapping runs on one chip.

    Parameters
    ----------
    chip:
        The chip instance runs execute on.
    options:
        Run options shared by every run of this session (fresh defaults
        when omitted).
    cache:
        Result cache; the process-wide shared cache when omitted, so
        independent sessions over the same chip reuse each other's
        runs.  Pass ``cache=None`` explicitly via a private
        :class:`ResultCache` to isolate a session (tests).
    executor / jobs:
        Fan-out backend for :meth:`run_many`: a prebuilt executor, else
        one built for *jobs* (``$REPRO_JOBS``, else serial, when
        omitted).
    retry:
        Fault-isolation policy (max retries, backoff, per-run
        timeout); ``$REPRO_MAX_RETRIES``/``$REPRO_RUN_TIMEOUT`` (the
        ``--max-retries``/``--run-timeout`` CLI flags) when omitted.
    on_failure:
        ``"raise"`` (default): a run that exhausts its retries raises
        one :class:`~repro.errors.ExecutionError` carrying every
        :class:`~repro.engine.resilience.RunFailure` of the batch.
        ``"collect"``: failures are returned in-place in the result
        list instead, so a sweep can keep the points that worked.
    faults:
        Optional :class:`~repro.faults.FaultPlan` injected around the
        executor; ``$REPRO_FAULTS`` when omitted (the CI
        fault-injection job sets it).
    telemetry:
        Telemetry sink (process default when omitted).
    """

    def __init__(
        self,
        chip: Chip,
        options: RunOptions | None = None,
        *,
        cache: ResultCache | None = None,
        executor: Executor | None = None,
        jobs: int | None = None,
        retry: RetryPolicy | None = None,
        on_failure: str = "raise",
        faults: object = _UNSET,
        telemetry: Telemetry | None = None,
    ):
        self.chip = chip
        self.options = options or RunOptions()
        self.cache = cache if cache is not None else global_cache()
        if executor is None:
            executor = make_executor(jobs)
        if on_failure not in FAILURE_MODES:
            raise ConfigError(
                f"on_failure must be one of {FAILURE_MODES} "
                f"(got {on_failure!r})"
            )
        self.retry = retry or RetryPolicy.from_env()
        self.on_failure = on_failure
        self.executor = self._wire_faults(executor, faults)
        self.telemetry = telemetry or get_telemetry()
        self.runner = ChipRunner(chip)
        self._chip_fp = chip_fingerprint(chip)

    @staticmethod
    def _wire_faults(executor, faults):
        """Wrap *executor* in a FaultyExecutor when a plan is supplied
        (explicitly or via ``$REPRO_FAULTS``)."""
        from ..faults import FaultPlan, FaultyExecutor

        if isinstance(executor, FaultyExecutor):
            return executor
        plan = FaultPlan.from_env() if faults is _UNSET else faults
        if plan is not None and plan.active:
            return FaultyExecutor(executor, plan)
        return executor

    def derive(self, **option_overrides) -> "SimulationSession":
        """A sibling session over the same chip, cache, executor and
        telemetry, with *option_overrides* applied to a copy of the run
        options (the caller's options are never mutated)."""
        return SimulationSession(
            self.chip,
            replace(self.options, **option_overrides),
            cache=self.cache,
            executor=self.executor,
            retry=self.retry,
            on_failure=self.on_failure,
            faults=None,
            telemetry=self.telemetry,
        )

    # -- single runs ----------------------------------------------------
    def fingerprint(self, mapping: Mapping, run_tag: object = "run") -> str:
        """Content address of one run under this session."""
        return run_fingerprint(self._chip_fp, mapping, self.options, run_tag)

    def run(self, mapping: Mapping, run_tag: object = "run") -> RunResult:
        """Execute *mapping* (or replay it from the cache).

        Under ``on_failure="collect"`` a run that exhausted its retry
        budget returns its :class:`RunFailure` record instead of a
        result.
        """
        self.telemetry.increment("engine.runs")
        key = self.fingerprint(mapping, run_tag)
        cached = self.cache.get(key)
        if cached is not None:
            self.telemetry.emit("run.cached", run=run_tag, fingerprint=key)
            return cached
        self.telemetry.emit("run.scheduled", run=run_tag, fingerprint=key)
        return self._execute_and_cache([(key, list(mapping), run_tag)])[0]

    # -- batched runs ---------------------------------------------------
    def run_many(
        self,
        mappings: Sequence[Mapping],
        tags: Sequence[object] | None = None,
    ) -> list[RunResult]:
        """Execute a batch of independent runs, in input order.

        Cache hits are replayed; distinct misses are deduplicated and
        fanned out over the session executor (chunked, so each worker
        process rebuilds the chip once per batch).  Finished runs are
        checkpointed to the cache as they complete, so an interrupted
        batch resumes from where it died.
        """
        mappings = [list(m) for m in mappings]
        if tags is None:
            tags = list(range(len(mappings)))
        if len(tags) != len(mappings):
            raise ValueError("tags and mappings must have equal length")
        self.telemetry.increment("engine.runs", len(mappings))

        results: list[RunResult | RunFailure | None] = [None] * len(mappings)
        pending: dict[str, list[int]] = {}
        with self.telemetry.span("session.lookup", runs=len(mappings)):
            for i, (mapping, tag) in enumerate(zip(mappings, tags)):
                key = self.fingerprint(mapping, tag)
                cached = self.cache.get(key)
                if cached is not None:
                    results[i] = cached
                    self.telemetry.emit(
                        "run.cached", run=tag, fingerprint=key
                    )
                else:
                    if key not in pending:
                        self.telemetry.emit(
                            "run.scheduled", run=tag, fingerprint=key
                        )
                    pending.setdefault(key, []).append(i)

        if pending:
            order = list(pending)
            work = [
                (key, mappings[pending[key][0]], tags[pending[key][0]])
                for key in order
            ]
            executed = self._execute_and_cache(work)
            for key, result in zip(order, executed):
                for i in pending[key]:
                    results[i] = result
        return results  # type: ignore[return-value]

    # -- internals ------------------------------------------------------
    def _account_executed(self, mappings: list[Mapping]) -> None:
        self.telemetry.increment("engine.runs_executed", len(mappings))
        # One LTI superposition solve per (solved segment, observed
        # core).  A run with no phase-randomized program solves one
        # segment for all its windows (ChipRunner.build_stimulus).
        segments = sum(
            1 if is_deterministic_mapping(mapping) else self.options.segments
            for mapping in mappings
        )
        self.telemetry.increment(
            "engine.solver_calls", segments * self.chip.n_cores
        )

    def _execute_and_cache(
        self, work: list[tuple[str, Mapping, object]]
    ) -> list[RunResult | RunFailure]:
        """Run the deduplicated misses under the retry policy; returns
        results (or failure records) in *work* order.

        Every finished run is flushed to the cache the moment its
        chunk completes — the incremental checkpoint that makes a
        killed campaign resumable — and failed runs are *not* cached,
        so a later invocation recomputes exactly the unfinished points.
        """
        keys = [key for key, _, _ in work]
        labels = [tag for _, _, tag in work]
        telemetry = self.telemetry
        # Compile before dispatch, so no run's latency carries the
        # compile and a forked pool inherits the compiled kernel.
        with telemetry.time("engine.kernel.compile_seconds"):
            self.chip.compiled_kernel
        run_fn = _RunItem(self.chip, self._chip_fp, self.options)
        # A forked pool worker finds this chip here instead of
        # rebuilding it; the memo is weak, so it pins nothing.
        _WORKER_CHIPS.setdefault(self._chip_fp, self.chip)

        def flush(index: int, outcome) -> None:
            # Fires per run as its chunk completes, so the disk-cache
            # checkpoint, the latency histograms and the event log all
            # advance incrementally — a killed campaign leaves both a
            # resumable cache and a readable trace.
            if outcome.ok:
                self.cache.put(keys[index], outcome.value)
            telemetry.observe("engine.run.seconds", outcome.duration_s)
            telemetry.observe("engine.run.attempts", outcome.attempts)
            if outcome.attempts > 1:
                telemetry.emit(
                    "run.retried",
                    run=labels[index],
                    fingerprint=keys[index],
                    retries=outcome.attempts - 1,
                )
            if outcome.ok:
                telemetry.emit(
                    "run.completed",
                    run=labels[index],
                    fingerprint=keys[index],
                    dur_s=round(outcome.duration_s, 6),
                    attempts=outcome.attempts,
                    worker=outcome.worker,
                )
            else:
                telemetry.emit(
                    "run.failed",
                    run=labels[index],
                    fingerprint=keys[index],
                    dur_s=round(outcome.duration_s, 6),
                    attempts=outcome.attempts,
                    worker=outcome.worker,
                    error=f"{outcome.failure.error_type}: "
                    f"{outcome.failure.message}",
                )

        for key, _, tag in work:
            telemetry.emit("run.started", run=tag, fingerprint=key)
        with telemetry.span("session.execute", runs=len(work)):
            with telemetry.time("engine.run_seconds"):
                outcomes = self.executor.map_guarded(
                    run_fn,
                    [(key, list(mapping), tag) for key, mapping, tag in work],
                    self.retry,
                    labels=labels,
                    fingerprints=keys,
                    on_result=flush,
                    telemetry=telemetry,
                )

        retries = sum(outcome.attempts - 1 for outcome in outcomes)
        if retries:
            self.telemetry.increment("engine.retries", retries)
        timeouts = sum(outcome.timeouts for outcome in outcomes)
        if timeouts:
            self.telemetry.increment("engine.timeouts", timeouts)
        failures = [o.failure for o in outcomes if not o.ok]
        self._account_executed(
            [mapping for (_, mapping, _), o in zip(work, outcomes) if o.ok]
        )
        if failures:
            self.telemetry.increment("engine.failures", len(failures))
            if self.on_failure == "raise":
                first = failures[0]
                error = ExecutionError(
                    f"{len(failures)} of {len(work)} run(s) failed "
                    f"permanently; first: {first.describe()}",
                    failures,
                )
                raise error from first.exception
        return [o.value if o.ok else o.failure for o in outcomes]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimulationSession(chip={self.chip!r}, "
            f"executor={self.executor!r})"
        )


# -- worker side ---------------------------------------------------------

#: Built chips a pool worker can run on, by identity, held weakly.
#: Sessions register theirs before dispatch, so a forked worker inherits
#: the parent's chip, modal model and kernel.  Nothing here keeps a chip
#: alive: in-process runs use the session's own chip, and a chip its
#: caller drops (an evicted serve chip) is freed with its kernel.
_WORKER_CHIPS: "weakref.WeakValueDictionary[str, Chip]" = (
    weakref.WeakValueDictionary()
)


class _RunItem:
    """Per-run callable: ``(fingerprint, mapping, tag)`` →
    :class:`RunResult`.  In-process it runs on the session's chip.  It
    pickles without the chip: a pool worker takes the chip it inherited
    (:data:`_WORKER_CHIPS`), else builds one and keeps it for the rest
    of its chunk."""

    def __init__(self, chip: Chip, chip_key: str, options: RunOptions):
        self.chip: Chip | None = chip
        self.config = chip.config
        self.chip_id = chip.chip_id
        self.chip_key = chip_key
        self.options = options

    def __getstate__(self) -> dict:
        return {**self.__dict__, "chip": None}

    def __call__(self, item: tuple[str, list, object]) -> RunResult:
        _, mapping, tag = item
        # Recorded into the *ambient* telemetry: inside a pool worker
        # that is the chunk's capture sink, whose snapshot merges back
        # into the session telemetry — the worker-side metrics that
        # used to vanish at the ProcessPoolExecutor boundary.
        telemetry = get_telemetry()
        chip = self.chip
        if chip is None:
            chip = _WORKER_CHIPS.get(self.chip_key)
            if chip is None:
                with telemetry.time("engine.worker.chip_build_seconds"):
                    chip = Chip(self.config, self.chip_id)
                _WORKER_CHIPS[self.chip_key] = chip
            self.chip = chip
        telemetry.increment("engine.solver.invocations")
        start = time.perf_counter()
        result = ChipRunner(chip).run(mapping, self.options, tag)
        telemetry.observe(
            "engine.solver.seconds", time.perf_counter() - start
        )
        return result
