"""Run-execution backends: serial and chunked process-pool fan-out.

Independent simulation runs (a frequency sweep's points, an exhaustive
mapping enumeration, a chip population, a GA generation) have no data
dependencies, so they fan out over a :class:`ProcessPoolExecutor` when
more than one job is requested.  Work is dispatched in contiguous
chunks, one per job, so each worker process amortizes its one-time
setup (rebuilding the chip's modal decomposition) over many runs.

Backend selection has one knob, the job count: an explicit ``jobs=``
argument, else ``$REPRO_JOBS`` (the CLI's ``--jobs``), else 1.
:func:`make_executor` returns a :class:`SerialExecutor` when the count
resolves to 1 and a :class:`ProcessExecutor` above that.  Fanning out
across processes or hosts is the fleet's job (:mod:`repro.fleet`).

Determinism does not depend on the backend: every run derives its
random streams by name (:mod:`repro.rng`), so serial and process
execution produce bit-identical results (guarded by
``tests/engine/test_determinism.py``).

Fault isolation: :meth:`map_guarded` is each backend's only entry
point.  It runs every item through
:func:`repro.engine.resilience.guarded_call` (bounded retry + backoff
+ optional per-run timeout) and returns structured
:class:`~repro.engine.resilience.GuardedOutcome`s instead of letting
one bad run kill the batch.  The process backend additionally
**degrades gracefully**: a chunk whose worker crashes
(``BrokenProcessPool``), wedges past its wall-clock budget, or fails to
even deserialize its task is re-executed serially in the parent
process, so a broken pool costs throughput, never results.

Telemetry crosses the pool boundary with the results: each guarded
chunk runs under :func:`repro.obs.capture_telemetry`, so everything the
run records ambiently (solver timers, retry counters, latency
histograms) is snapshotted per chunk and merged back into the caller's
sink — a ``--jobs N`` campaign reports the same counters as a serial
one (guarded by ``tests/engine/test_worker_telemetry.py``).
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

from ..errors import ConfigError
from ..obs import Telemetry, capture_telemetry, get_telemetry
from .resilience import GuardedOutcome, RetryPolicy, guarded_call

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "resolve_jobs",
    "chunked",
]

#: Pool-level slack (seconds) on top of the per-chunk retry/timeout
#: budget before a worker is declared wedged.
POOL_GRACE_S = 5.0

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: int | None = None) -> int:
    """Job count: explicit argument, else ``$REPRO_JOBS``, else 1."""
    if jobs is not None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1 (got {jobs})")
        return jobs
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            parsed = int(env)
        except ValueError:
            raise ConfigError(f"REPRO_JOBS must be an integer (got {env!r})")
        if parsed < 1:
            raise ConfigError(f"REPRO_JOBS must be >= 1 (got {parsed})")
        return parsed
    return 1


def chunked(items: Sequence[T], n_chunks: int) -> list[list[T]]:
    """Split *items* into at most *n_chunks* contiguous, near-equal
    chunks (empty chunks are dropped)."""
    if n_chunks < 1:
        raise ConfigError(f"n_chunks must be >= 1 (got {n_chunks})")
    n_chunks = min(n_chunks, len(items)) or 1
    size, extra = divmod(len(items), n_chunks)
    chunks: list[list[T]] = []
    start = 0
    for i in range(n_chunks):
        stop = start + size + (1 if i < extra else 0)
        if stop > start:
            chunks.append(list(items[start:stop]))
        start = stop
    return chunks


def _normalize_guard_inputs(
    items: Sequence,
    labels: Sequence[object] | None,
    fingerprints: Sequence[str | None] | None,
) -> list[tuple[int, object, object, str | None]]:
    """Zip items with per-item failure metadata into (index, item,
    label, fingerprint) entries."""
    items = list(items)
    if labels is None:
        labels = list(range(len(items)))
    if fingerprints is None:
        fingerprints = [None] * len(items)
    if len(labels) != len(items) or len(fingerprints) != len(items):
        raise ConfigError(
            "labels/fingerprints must match the number of items"
        )
    return list(zip(range(len(items)), items, labels, fingerprints))


class SerialExecutor:
    """In-process, in-order execution (the default backend)."""

    name = "serial"
    jobs = 1

    def map_guarded(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        retry: RetryPolicy | None = None,
        *,
        labels: Sequence[object] | None = None,
        fingerprints: Sequence[str | None] | None = None,
        on_result: Callable[[int, GuardedOutcome], None] | None = None,
        telemetry: Telemetry | None = None,
    ) -> list[GuardedOutcome]:
        """Fault-isolated in-order map: one outcome per item.

        *on_result* fires as each item completes (the session uses it
        to flush finished runs to the disk cache incrementally, which
        is what makes an interrupted campaign resumable).  Everything
        the runs record ambiently is captured and merged into
        *telemetry* (the ambient sink when omitted), mirroring the
        process backend's worker-snapshot merge so both backends
        account identically.
        """
        retry = retry or RetryPolicy()
        sink = telemetry or get_telemetry()
        outcomes: list[GuardedOutcome] = []
        with capture_telemetry() as local:
            try:
                for index, item, label, fingerprint in _normalize_guard_inputs(
                    items, labels, fingerprints
                ):
                    outcome = guarded_call(
                        fn, item, retry, label=label, fingerprint=fingerprint
                    )
                    if on_result is not None:
                        on_result(index, outcome)
                    outcomes.append(outcome)
            finally:
                # Merge inside a finally so an interrupted batch keeps
                # the metrics of the runs that did finish.
                sink.merge(local.merge_payload())
        return outcomes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "SerialExecutor()"


def _run_chunk_guarded(
    fn: Callable, chunk: list, retry: RetryPolicy
) -> list[tuple[int, GuardedOutcome]]:
    """Guarded chunk driver: retries happen *inside* the hosting
    process (cheap — no round trip), failures come back as data."""
    return [
        (
            index,
            guarded_call(
                fn, item, retry, label=label, fingerprint=fingerprint
            ),
        )
        for index, item, label, fingerprint in chunk
    ]


def _run_chunk_guarded_captured(
    fn: Callable, chunk: list, retry: RetryPolicy
) -> tuple[list[tuple[int, GuardedOutcome]], dict]:
    """Worker-side guarded driver with telemetry capture: the chunk's
    ambient recordings (solver timers, histograms, counters) come back
    as a picklable merge payload alongside the outcomes, so nothing a
    worker records is lost at the pool boundary."""
    with capture_telemetry() as local:
        pairs = _run_chunk_guarded(fn, chunk, retry)
        return pairs, local.merge_payload()


class ProcessExecutor:
    """Chunked fan-out over a :class:`ProcessPoolExecutor`.

    ``fn`` and the items must be picklable (module-level callables or
    dataclass instances).  Results come back in input order.
    """

    name = "process"

    def __init__(self, jobs: int | None = None):
        self.jobs = resolve_jobs(jobs)

    def map_guarded(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        retry: RetryPolicy | None = None,
        *,
        labels: Sequence[object] | None = None,
        fingerprints: Sequence[str | None] | None = None,
        on_result: Callable[[int, GuardedOutcome], None] | None = None,
        telemetry: Telemetry | None = None,
    ) -> list[GuardedOutcome]:
        """Fault-isolated fan-out with graceful degradation.

        Retries run worker-side; a chunk whose worker crashes, wedges
        past its wall-clock budget, or cannot even unpickle its task is
        re-executed serially in the parent, so every item always ends
        up with a :class:`GuardedOutcome`.  *on_result* fires per item
        as its chunk completes (incremental checkpoint flush).

        Each worker chunk captures what its runs record ambiently and
        ships the snapshot back with the outcomes; the snapshot is
        merged into *telemetry* (ambient sink when omitted) as the
        chunk completes, so worker-side metrics — retry counters,
        solver timers, latency histograms — survive the pool boundary.
        Degraded chunks re-run in-process under the same capture, so
        fault-degraded and healthy chunks account identically.
        """
        retry = retry or RetryPolicy()
        sink = telemetry or get_telemetry()
        entries = _normalize_guard_inputs(items, labels, fingerprints)
        if not entries:
            return []
        serial = SerialExecutor()
        if self.jobs == 1 or len(entries) <= 1:
            return serial.map_guarded(
                fn,
                [item for _, item, _, _ in entries],
                retry,
                labels=[label for _, _, label, _ in entries],
                fingerprints=[fp for _, _, _, fp in entries],
                on_result=on_result,
                telemetry=sink,
            )
        # Imported here, where the pool starts: a serial process never
        # loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        chunks = chunked(entries, self.jobs)
        outcomes: list[GuardedOutcome | None] = [None] * len(entries)
        budget = self._chunk_budget_s(retry)
        degraded = False
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        try:
            futures = [
                pool.submit(_run_chunk_guarded_captured, fn, chunk, retry)
                for chunk in chunks
            ]
            for future, chunk in zip(futures, chunks):
                try:
                    timeout = budget * len(chunk) if budget else None
                    pairs, worker_payload = future.result(timeout=timeout)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as error:
                    # Worker crash (BrokenProcessPool), wedged worker
                    # (TimeoutError) or task transfer failure: run this
                    # chunk in-process instead of losing the batch.
                    if not degraded:
                        degraded = True
                        _account_degradation(sink)
                    sink.increment("engine.pool.chunk_failures")
                    with capture_telemetry() as local:
                        pairs = _run_chunk_guarded(fn, chunk, retry)
                        worker_payload = local.merge_payload()
                sink.merge(worker_payload)
                for index, outcome in pairs:
                    outcomes[index] = outcome
                    if on_result is not None:
                        on_result(index, outcome)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return outcomes  # type: ignore[return-value]

    def _chunk_budget_s(self, retry: RetryPolicy) -> float | None:
        """Wall-clock allowance per chunk item before the pool declares
        the worker wedged (None disables the watchdog, matching
        ``run_timeout_s=None``)."""
        if retry.run_timeout_s is None:
            return None
        backoff_total = sum(
            retry.backoff_s(attempt)
            for attempt in range(1, retry.max_retries + 1)
        )
        per_item = retry.run_timeout_s * (retry.max_retries + 1)
        return per_item + backoff_total + POOL_GRACE_S

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ProcessExecutor(jobs={self.jobs})"


def _account_degradation(telemetry: Telemetry) -> None:
    telemetry.increment("engine.pool.degraded_to_serial")


#: Union type for annotations.
Executor = SerialExecutor | ProcessExecutor


def make_executor(jobs: int | None = None) -> Executor:
    """The backend for a job count (explicit > ``$REPRO_JOBS`` > 1):
    serial at one job, a process pool above that."""
    jobs = resolve_jobs(jobs)
    if jobs == 1:
        return SerialExecutor()
    return ProcessExecutor(jobs)
