"""Per-run fault isolation: retry with backoff, timeouts, structured
failures.

The Vmin protocol the paper is built around *expects* runs to die —
undervolt until the R-Unit sees the first error and the system reboots —
and near-margin stress campaigns (FIRESTARTER-style shmoo sweeps) treat
crash-and-resume as the normal case, not the exception.  This module
gives the engine the same stance: a single run is executed through
:func:`guarded_call`, which

* enforces an optional per-run wall-clock budget (``run_timeout_s``),
* retries transient failures with bounded exponential backoff
  (deterministic — no jitter, so campaigns stay reproducible), while a
  :class:`~repro.errors.ConfigError` — a bad input, which fails the
  same way every time — fails on its first attempt, and
* converts a run that still fails after its budget into a structured
  :class:`RunFailure` record (error type, message, traceback, attempt
  count, run label) instead of an exception that would kill the whole
  chunk.

Executors fan :func:`guarded_call` out (``map_guarded``), sessions
account the attempt counters into telemetry, and callers choose whether
a surviving failure raises (:class:`~repro.errors.ExecutionError`) or
is collected alongside the successful results.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from ..errors import ConfigError, RunTimeoutError

__all__ = [
    "RetryPolicy",
    "RunFailure",
    "GuardedOutcome",
    "guarded_call",
    "call_with_timeout",
]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class RetryPolicy:
    """How the execution layer treats a failing run.

    Attributes
    ----------
    max_retries:
        Re-executions granted after the first failed attempt (0 = fail
        immediately; the default 2 absorbs transient worker faults).
    backoff_base_s:
        Sleep before the first retry; each further retry multiplies it
        by :attr:`backoff_factor`, capped at :attr:`backoff_max_s`.
        The schedule is deterministic (no jitter) so that campaigns
        remain bit-reproducible under fault injection.
    run_timeout_s:
        Per-run wall-clock budget; ``None`` disables the watchdog.  A
        run that exceeds it fails with
        :class:`~repro.errors.RunTimeoutError` (and is retried like any
        other failure).
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    run_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0 (got {self.max_retries})"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1 (got {self.backoff_factor})"
            )
        if self.run_timeout_s is not None and self.run_timeout_s <= 0:
            raise ConfigError(
                f"run_timeout_s must be > 0 (got {self.run_timeout_s})"
            )

    def backoff_s(self, attempt: int) -> float:
        """Sleep before retry number *attempt* (1-based)."""
        if attempt < 1:
            return 0.0
        return min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.backoff_max_s,
        )

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Policy from ``$REPRO_MAX_RETRIES`` / ``$REPRO_RUN_TIMEOUT``
        (the ``--max-retries`` / ``--run-timeout`` CLI flags export
        these), with library defaults for anything unset."""
        kwargs: dict = {}
        retries = os.environ.get("REPRO_MAX_RETRIES", "").strip()
        if retries:
            try:
                kwargs["max_retries"] = int(retries)
            except ValueError:
                raise ConfigError(
                    f"REPRO_MAX_RETRIES must be an integer (got {retries!r})"
                )
        timeout = os.environ.get("REPRO_RUN_TIMEOUT", "").strip()
        if timeout:
            try:
                kwargs["run_timeout_s"] = float(timeout)
            except ValueError:
                raise ConfigError(
                    f"REPRO_RUN_TIMEOUT must be a number (got {timeout!r})"
                )
        return cls(**kwargs)


@dataclass
class RunFailure:
    """A run that exhausted its retry budget, as data.

    Picklable by construction (the original exception object rides
    along only when it pickles cleanly), so a failure can cross a
    process-pool boundary without taking the chunk down with it.
    """

    label: object
    error_type: str
    message: str
    traceback: str
    attempts: int
    fingerprint: str | None = None
    exception: BaseException | None = field(default=None, repr=False)

    @classmethod
    def from_exception(
        cls,
        error: BaseException,
        label: object = None,
        attempts: int = 1,
        fingerprint: str | None = None,
    ) -> "RunFailure":
        try:
            carried = pickle.loads(pickle.dumps(error))
        except Exception:
            carried = None
        return cls(
            label=label,
            error_type=type(error).__name__,
            message=str(error),
            traceback="".join(
                traceback_module.format_exception(
                    type(error), error, error.__traceback__
                )
            ),
            attempts=attempts,
            fingerprint=fingerprint,
            exception=carried,
        )

    def describe(self) -> str:
        return (
            f"run {self.label!r} failed after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.message}"
        )


@dataclass
class GuardedOutcome:
    """Result of one guarded run: either a value or a failure record,
    plus the attempt/timeout counts (for the retry telemetry) and the
    total wall clock spent across all attempts, including backoff
    sleeps (feeds the ``engine.run.seconds`` latency histogram).

    ``worker`` is the pid of the process that executed the run — the
    parent itself under the serial backend, a pool worker under the
    process backend — which is how the Chrome trace exporter lays a
    ``--jobs N`` campaign out as one lane per worker."""

    value: object = None
    failure: RunFailure | None = None
    attempts: int = 1
    timeouts: int = 0
    duration_s: float = 0.0
    worker: int | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def call_with_timeout(
    fn: Callable[[T], R], item: T, timeout_s: float | None
) -> R:
    """Apply *fn* to *item*, bounded by *timeout_s* of wall clock.

    The call runs on a daemon watchdog thread; when the budget expires
    the caller raises :class:`~repro.errors.RunTimeoutError` and
    abandons the thread (a leaked worker finishes in the background —
    acceptable for the pure-compute runs the engine executes, and the
    only portable soft-timeout available in-process).
    """
    if timeout_s is None:
        return fn(item)
    box: dict = {}

    def target() -> None:
        try:
            box["value"] = fn(item)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            box["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise RunTimeoutError(
            f"run exceeded its {timeout_s:g}s wall-clock budget"
        )
    if "error" in box:
        raise box["error"]
    return box["value"]


def guarded_call(
    fn: Callable[[T], R],
    item: T,
    policy: RetryPolicy | None = None,
    *,
    label: object = None,
    fingerprint: str | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> GuardedOutcome:
    """Execute one run under *policy*; never raises for run failures.

    ``KeyboardInterrupt``/``SystemExit`` propagate (a host interruption
    must abort the campaign, not be retried).  A
    :class:`~repro.errors.ConfigError` is deterministic, so it becomes a
    :class:`RunFailure` on its first attempt, without a backoff sleep.
    Every other exception — including the watchdog's
    :class:`~repro.errors.RunTimeoutError` — consumes one attempt and,
    once the budget is spent, becomes a :class:`RunFailure`.
    """
    policy = policy or RetryPolicy()
    attempts = 0
    timeouts = 0
    started = time.perf_counter()
    while True:
        attempts += 1
        try:
            value = call_with_timeout(fn, item, policy.run_timeout_s)
            return GuardedOutcome(
                value=value,
                attempts=attempts,
                timeouts=timeouts,
                duration_s=time.perf_counter() - started,
                worker=os.getpid(),
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as error:
            if isinstance(error, RunTimeoutError):
                timeouts += 1
            if attempts > policy.max_retries or isinstance(
                error, ConfigError
            ):
                return GuardedOutcome(
                    failure=RunFailure.from_exception(
                        error,
                        label=label,
                        attempts=attempts,
                        fingerprint=fingerprint,
                    ),
                    attempts=attempts,
                    timeouts=timeouts,
                    duration_s=time.perf_counter() - started,
                    worker=os.getpid(),
                )
            sleep(policy.backoff_s(attempts))
