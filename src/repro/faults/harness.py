"""Applying a :class:`~repro.faults.plan.FaultPlan` to real execution.

:class:`FaultyExecutor` wraps any engine executor (serial or process)
and injects the plan's faults into every mapped call:

* **crash** — inside a pool worker the process genuinely dies
  (``os._exit``), producing the ``BrokenProcessPool`` the executor's
  degradation path must absorb; in the main process (serial backend, or
  the parent's serial fallback) it raises :class:`InjectedCrash`
  instead, because killing the host would end the campaign rather than
  one worker.
* **hang** — the run stalls for ``hang_seconds`` before proceeding,
  exercising the per-run wall-clock watchdog.
* **exception** — the run raises :class:`InjectedFault`.

Transient faults (the default) fire at most once per process per run
key, the model of a flaky worker that a single retry fixes; permanent
faults fire on every attempt and must surface as structured failures.
Fault decisions are keyed by run content (see
:meth:`FaultPlan.decide <repro.faults.plan.FaultPlan.decide>`), so an
injected campaign fails the *same* runs regardless of backend or
execution order.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Sequence

from ..engine.fingerprint import canonical
from ..engine.resilience import GuardedOutcome, RetryPolicy
from ..errors import ReproError
from .plan import FaultPlan

__all__ = [
    "InjectedFault",
    "InjectedCrash",
    "FaultyExecutor",
    "fault_key",
    "corrupt_cache_entries",
    "reset_fault_memo",
]


class InjectedFault(ReproError):
    """An artificial run failure produced by a :class:`FaultPlan`."""


class InjectedCrash(InjectedFault):
    """Stand-in for a dead worker when the run executes in the main
    process (where a real ``os._exit`` would kill the campaign)."""


#: Exit status of workers killed by crash injection (visible in the
#: pool's BrokenProcessPool message — greppable in CI logs).
CRASH_EXIT_STATUS = 13

#: Per-process memo of (plan seed, run key) transient faults already
#: delivered, so a retried run succeeds on its next attempt.
_FIRED: set[tuple[int, str]] = set()

#: Per-process successful-call counters for ``abort_after`` plans.
_CALLS: dict[int, int] = {}


def reset_fault_memo() -> None:
    """Forget fired faults and call counts (test isolation)."""
    _FIRED.clear()
    _CALLS.clear()


def fault_key(item: object) -> str:
    """The stable per-run key a fault decision hangs off.

    Engine work items arrive as ``((mapping, tag))`` tuples whose
    canonical form is process-stable; anything else falls back to
    :func:`~repro.engine.fingerprint.canonical` too (callers with
    richer items can pre-compute keys and pass tuples whose first
    element is the content fingerprint).
    """
    if isinstance(item, tuple) and item and isinstance(item[0], str):
        return item[0]
    return canonical(item)


class _FaultyFn:
    """Picklable wrapper that injects plan faults around one callable.

    The pid captured at construction distinguishes "running in the
    main process" (serial backend, parent fallback) from "running in a
    forked pool worker" — only the latter may genuinely die.
    """

    def __init__(
        self,
        plan: FaultPlan,
        fn: Callable,
        key_fn: Callable[[object], str] = fault_key,
    ):
        self.plan = plan
        self.fn = fn
        self.key_fn = key_fn
        self.main_pid = os.getpid()

    def _should_fire(self, key: str) -> bool:
        memo_key = (self.plan.seed, key)
        if self.plan.transient and memo_key in _FIRED:
            return False
        _FIRED.add(memo_key)
        return True

    def __call__(self, item: object):
        key = self.key_fn(item)
        kind = self.plan.decide(key)
        if kind is not None and self._should_fire(key):
            if kind == "crash":
                if os.getpid() != self.main_pid:
                    os._exit(CRASH_EXIT_STATUS)
                raise InjectedCrash(f"injected worker crash for run {key[:12]}")
            if kind == "hang":
                time.sleep(self.plan.hang_seconds)
            elif kind == "exception":
                raise InjectedFault(f"injected fault for run {key[:12]}")
        value = self.fn(item)
        if self.plan.abort_after is not None:
            count = _CALLS.get(self.plan.seed, 0) + 1
            _CALLS[self.plan.seed] = count
            if count >= self.plan.abort_after:
                raise KeyboardInterrupt(
                    f"injected host interruption after {count} runs"
                )
        return value


class FaultyExecutor:
    """An engine executor with a :class:`FaultPlan` bolted on.

    Drop-in for :class:`~repro.engine.executor.SerialExecutor` /
    :class:`~repro.engine.executor.ProcessExecutor`: ``map_guarded``
    delegates to the wrapped backend with every call routed through
    the plan.  The engine's resilience machinery is
    expected to absorb whatever the plan throws — that is the point.
    """

    def __init__(
        self,
        inner,
        plan: FaultPlan,
        key_fn: Callable[[object], str] = fault_key,
    ):
        self.inner = inner
        self.plan = plan
        self.key_fn = key_fn

    @property
    def name(self) -> str:
        return f"faulty+{self.inner.name}"

    @property
    def jobs(self) -> int:
        return self.inner.jobs

    def map_guarded(
        self,
        fn: Callable,
        items: Sequence,
        retry: RetryPolicy | None = None,
        **kwargs,
    ) -> list[GuardedOutcome]:
        return self.inner.map_guarded(
            _FaultyFn(self.plan, fn, self.key_fn), items, retry, **kwargs
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultyExecutor({self.inner!r}, {self.plan.describe()})"


def corrupt_cache_entries(
    cache_dir: str | Path, plan: FaultPlan, count: int | None = None
) -> list[Path]:
    """Tear *count* (default ``plan.corrupt_entries``) disk-cache
    payloads, the way a killed process without atomic writes would.

    Victims are chosen deterministically — entries are ranked by the
    plan's per-key draw — and each victim is truncated to half its
    size, producing the truncated-pickle corruption the cache's
    quarantine path must turn into a recompute.  Returns the torn
    paths.
    """
    count = plan.corrupt_entries if count is None else count
    cache_dir = Path(cache_dir)
    entries = sorted(
        path
        for path in cache_dir.rglob("*.pkl")
        if "quarantine" not in path.parts
    )
    entries.sort(key=lambda path: plan.draw(path.stem))
    victims = entries[:count]
    for path in victims:
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])
    return victims
