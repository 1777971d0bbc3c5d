"""Campaign manifests: durable record of which points finished.

A multi-experiment CLI invocation (``repro-noise run fig7a fig9 ...``)
is a *campaign*.  Individual run results already checkpoint into the
disk cache as they complete, so re-running a killed campaign replays
the finished runs for free — but the campaign itself still needs to
know which *points* (experiments) completed so ``--resume`` can skip
them without re-entering their drivers at all.  The manifest is a tiny
JSON file, rewritten atomically after every completed point, holding
per-point status and the engine telemetry snapshot at completion time.

Every write happens under a writer lock (a live concurrent writer is
waited out with bounded, deterministically jittered retries, then
refused with :class:`~repro.errors.ConcurrencyError`), because with a
fleet (:mod:`repro.fleet`) several *processes* write manifests of one
campaign: each worker keeps a private completion record, and
:meth:`CampaignManifest.merge_from` folds those into the shared one —
the bookkeeping half of the fleet fold, next to the disk-cache merge
(:func:`repro.engine.cache.merge_cache_dirs`).

The fleet's shared manifest is additionally the *claim table*: any
worker pulls unfinished runs in batches
under the writer lock (:meth:`CampaignManifest.claim_batch`), renews
its leases while executing (:meth:`CampaignManifest.renew_claims`),
and survivors steal the expired leases of dead or wedged workers.  A
run whose lease has expired under ``poison_after`` distinct workers is
benched as ``poisoned`` instead of wedging the fleet — the claim-table
analogue of the disk cache's corruption quarantine.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from ..errors import ConcurrencyError, ConfigError
from ..ioutil import atomic_write_json
from .resilience import RetryPolicy

__all__ = ["CampaignManifest", "ClaimDecision", "LOCK_RETRY"]

MANIFEST_VERSION = 1
MANIFEST_NAME = "campaign-manifest.json"

#: Point-status precedence when merging manifests: completed work wins
#: over a recorded failure, which wins over a benched (poisoned) run,
#: which wins over a mere claim or start marker.
_STATUS_RANK = {
    "complete": 4,
    "failed": 3,
    "poisoned": 2,
    "claimed": 1,
    "started": 0,
}

#: Statuses that take a point out of the claimable pool for good.
_TERMINAL = frozenset({"complete", "failed", "poisoned"})

#: Default contention policy of :meth:`CampaignManifest.writer_lock`:
#: a handful of short, deterministically jittered waits — long enough
#: for polite multi-worker claiming (fleet workers hold the lock for
#: milliseconds), short enough that two genuinely long-lived writers
#: sharing one manifest path still fail fast.
LOCK_RETRY = RetryPolicy(
    max_retries=6,
    backoff_base_s=0.02,
    backoff_factor=2.0,
    backoff_max_s=0.25,
)

#: How many distinct workers a run may kill before it is benched.
DEFAULT_POISON_AFTER = 3

_UNSET = object()


def _token_pid(token: str | None) -> int | None:
    """The pid recorded in a lock token (``pid:nonce`` or a legacy
    bare pid), or ``None`` when unparsable."""
    if not token:
        return None
    try:
        return int(token.split(":", 1)[0])
    except ValueError:
        return None


@dataclass
class ClaimDecision:
    """What one :meth:`CampaignManifest.claim_batch` call decided.

    ``claimed`` is what the worker now holds (``stolen`` is the subset
    reclaimed from expired leases); ``poisoned`` lists runs benched by
    this very call; ``pending`` counts unfinished runs currently held
    under someone else's live lease; ``remaining`` counts unfinished
    claimable runs left behind (claim again later).  The campaign is
    finished for this worker when all four are empty/zero.
    """

    claimed: list[str] = field(default_factory=list)
    stolen: list[str] = field(default_factory=list)
    poisoned: list[str] = field(default_factory=list)
    pending: int = 0
    remaining: int = 0

    @property
    def exhausted(self) -> bool:
        """True when no unfinished work is left anywhere — neither
        claimable nor under a live lease."""
        return not self.claimed and not self.pending and not self.remaining


class CampaignManifest:
    """Atomic, resumable record of a campaign's completed points.

    The file is the source of truth: every mutation reloads, applies,
    and atomically republishes, so concurrent readers (or a process
    killed mid-update) only ever see a complete manifest.  Mutating
    methods serialize through :meth:`writer_lock`, which is reentrant
    within the acquiring thread — a caller already holding the lock
    can checkpoint without deadlocking itself.
    """

    def __init__(self, path: str | Path):
        path = Path(path)
        if path.is_dir():
            path = path / MANIFEST_NAME
        self.path = path
        self._lock_depth = 0
        self._owner_thread: int | None = None

    @property
    def lock_path(self) -> Path:
        return self.path.parent / (self.path.name + ".lock")

    # -- reading --------------------------------------------------------
    def load(self) -> dict:
        """The manifest payload (a fresh empty one when the file does
        not exist or is unreadable — a torn manifest must never wedge
        a resume, it just loses the skip optimization)."""
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {"version": MANIFEST_VERSION, "points": {}}
        if not isinstance(payload, dict) or "points" not in payload:
            return {"version": MANIFEST_VERSION, "points": {}}
        return payload

    @property
    def completed(self) -> set[str]:
        """Ids of points recorded as complete."""
        points = self.load()["points"]
        return {
            point_id
            for point_id, entry in points.items()
            if isinstance(entry, dict) and entry.get("status") == "complete"
        }

    def statuses(self) -> dict[str, str]:
        """Point id → status for every recorded point."""
        return {
            point_id: entry.get("status", "?")
            for point_id, entry in self.load()["points"].items()
            if isinstance(entry, dict)
        }

    # -- writing --------------------------------------------------------
    def mark_started(self, point_id: str) -> None:
        """Record that *point_id* began executing (a later resume sees
        it as unfinished and recomputes it)."""
        self._update(point_id, {"status": "started"})

    def mark_complete(self, point_id: str, meta: dict | None = None) -> None:
        """Record that *point_id* finished; *meta* (e.g. a telemetry
        snapshot) rides along for post-mortems."""
        entry: dict = {"status": "complete"}
        if meta:
            entry["meta"] = meta
        self._update(point_id, entry)

    def mark_failed(
        self, point_id: str, reason: str, worker: str | None = None
    ) -> None:
        """Record a permanent point failure (still recomputed on
        resume — a failure is by definition unfinished work)."""
        entry: dict = {"status": "failed", "reason": reason}
        if worker is not None:
            entry["worker"] = worker
        self._update(point_id, entry)

    def mark_many_complete(
        self, point_ids: list[str], worker: str | None = None
    ) -> None:
        """Record a batch of completed points in one atomic rewrite
        (what the plan executor does after each run group, instead of
        an O(n²) rewrite-per-run), under the writer lock so concurrent
        batches from different workers never lose updates.

        With a *worker*, completion is attributed to that worker id —
        the per-worker accounting the fleet fold reports — and steal
        history recorded on the prior claim entry is preserved.
        """
        if not point_ids:
            return
        with self.writer_lock():
            payload = self.load()
            payload["version"] = MANIFEST_VERSION
            for point_id in point_ids:
                entry: dict = {"status": "complete"}
                previous = payload["points"].get(point_id)
                if isinstance(previous, dict) and previous.get("steals"):
                    entry["steals"] = previous["steals"]
                if worker is not None:
                    entry["worker"] = worker
                payload["points"][point_id] = entry
            atomic_write_json(self.path, payload)

    def _update(self, point_id: str, entry: dict) -> None:
        with self.writer_lock():
            payload = self.load()
            payload["version"] = MANIFEST_VERSION
            payload["points"][point_id] = entry
            atomic_write_json(self.path, payload)

    # -- campaign identity ----------------------------------------------
    @property
    def campaign(self) -> dict | None:
        """The campaign identity recorded by :meth:`bind_campaign`
        (``None`` for a fresh or pre-sharding manifest)."""
        entry = self.load().get("campaign")
        return entry if isinstance(entry, dict) else None

    def bind_campaign(self, info: dict) -> None:
        """Record which campaign (plan fingerprint, shard) this
        manifest belongs to, so a later merge can refuse to fold
        manifests of *different* campaigns into one result.

        Rebinding to a different plan fingerprint raises
        :class:`~repro.errors.ConfigError` — a manifest path reused
        across campaigns is almost certainly an operator mistake.
        """
        current = self.campaign
        if current and current.get("plan") != info.get("plan"):
            raise ConfigError(
                f"manifest {self.path} already belongs to campaign "
                f"{current.get('plan')!r}; refusing to rebind to "
                f"{info.get('plan')!r} (use a fresh manifest path)"
            )
        with self.writer_lock():
            payload = self.load()
            payload["version"] = MANIFEST_VERSION
            payload["campaign"] = info
            atomic_write_json(self.path, payload)

    # -- concurrent writers ---------------------------------------------
    @contextmanager
    def writer_lock(
        self,
        retry: RetryPolicy | None | object = _UNSET,
        jitter_key: str | None = None,
    ) -> Iterator[None]:
        """Exclusive-writer guard for the manifest path.

        Holds an exclusive ``flock`` on ``<manifest>.lock`` and records
        this writer's ``pid:nonce`` token in it.  Contention with a
        *live* writer is retried under *retry* (default
        :data:`LOCK_RETRY`) with deterministic jitter derived from
        ``(jitter_key or pid, attempt)`` — polite multi-worker claiming
        instead of an instant refusal — and only a writer that stays
        locked through the whole budget gets
        :class:`~repro.errors.ConcurrencyError`.  ``retry=None``
        restores the fail-fast behavior.

        The kernel drops a dead holder's ``flock``, so a lockfile left
        behind by a dead process is no obstacle: the next writer locks
        it and overwrites the stale token.  Liveness is never guessed
        from a recorded pid, so no live owner's lock can be taken over
        and a reused pid cannot keep a stale lock alive.  Release
        unlinks the lockfile *before* unlocking it; a waiter that then
        wins the ``flock`` on the unlinked inode sees that it is no
        longer the lock path and retries.

        The lock is reentrant within the owning thread: nested
        ``writer_lock()`` blocks on the same instance (e.g. a
        checkpoint inside an execution that already holds the lock)
        are free.
        """
        if self._owner_thread == threading.get_ident():
            self._lock_depth += 1
            try:
                yield
            finally:
                self._lock_depth -= 1
            return
        policy = LOCK_RETRY if retry is _UNSET else retry
        self.lock_path.parent.mkdir(parents=True, exist_ok=True)
        token = f"{os.getpid()}:{os.urandom(4).hex()}"
        attempts = 0
        spins = 0
        while True:
            try:
                fd = self._try_acquire(token)
            except ConcurrencyError:
                attempts += 1
                if policy is None or attempts > policy.max_retries:
                    raise
                time.sleep(
                    policy.backoff_s(attempts)
                    * _lock_jitter(jitter_key, attempts)
                )
                continue
            if fd is not None:
                break
            spins += 1
            if spins > 50:  # pragma: no cover - pathological churn
                raise ConcurrencyError(
                    f"manifest {self.path} is locked by a concurrent writer"
                )
        self._owner_thread = threading.get_ident()
        self._lock_depth = 1
        try:
            yield
        finally:
            self._lock_depth = 0
            self._owner_thread = None
            try:
                os.unlink(self.lock_path)
            except OSError:  # pragma: no cover - already removed
                pass
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def _try_acquire(self, token: str) -> int | None:
        """One acquisition attempt.  Returns the locked descriptor when
        this writer now owns the lock, ``None`` when the attempt should
        be repeated (the previous owner released the lockfile between
        our open and our ``flock``), and raises
        :class:`~repro.errors.ConcurrencyError` on a live holder."""
        fd = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        owned = False
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise ConcurrencyError(
                    f"manifest {self.path} is locked by live writer "
                    f"pid {self._lock_holder()}; two writer processes "
                    f"must not share one manifest path"
                ) from None
            try:
                current = os.stat(self.lock_path)
            except FileNotFoundError:
                return None
            if not os.path.samestat(current, os.fstat(fd)):
                return None
            os.ftruncate(fd, 0)
            os.pwrite(fd, token.encode(), 0)
            owned = True
            return fd
        finally:
            if not owned:
                os.close(fd)  # also drops a flock we took

    def _lock_token(self) -> str | None:
        try:
            return self.lock_path.read_text()
        except OSError:
            return None

    def _lock_holder(self) -> int | None:
        return _token_pid(self._lock_token())

    # -- lease-based claiming (fleet) ------------------------------------
    def claim_batch(
        self,
        candidates: Sequence[str],
        *,
        worker: str,
        limit: int = 4,
        lease_s: float = 30.0,
        host: str | None = None,
        pid: int | None = None,
        poison_after: int = DEFAULT_POISON_AFTER,
        now: float | None = None,
    ) -> ClaimDecision:
        """Claim up to *limit* unfinished points from *candidates*
        under a heartbeat-renewable lease, in one atomic rewrite under
        the writer lock.

        A point is claimable when it has never been claimed, was
        released, or its current lease expired (dead or wedged
        worker) — the latter is a *steal*, recorded on the entry.  A
        point whose lease has now expired under ``poison_after``
        distinct workers is benched as ``poisoned`` instead of being
        handed out again: a run that keeps killing workers must not
        wedge the fleet.  A malformed claim entry (lease corruption)
        counts as expired — corruption must never make a run
        unclaimable forever.
        """
        if limit < 1:
            raise ConfigError(f"claim limit must be >= 1 (got {limit})")
        if lease_s <= 0:
            raise ConfigError(f"lease_s must be > 0 (got {lease_s})")
        now = time.time() if now is None else now
        decision = ClaimDecision()
        with self.writer_lock(jitter_key=worker):
            payload = self.load()
            payload["version"] = MANIFEST_VERSION
            points = payload["points"]
            for point_id in candidates:
                entry = points.get(point_id)
                entry = entry if isinstance(entry, dict) else {}
                status = entry.get("status")
                if status in _TERMINAL:
                    continue
                stolen_from: str | None = None
                if status == "claimed":
                    claim = entry.get("claim")
                    claim = claim if isinstance(claim, dict) else {}
                    owner = claim.get("worker")
                    deadline = claim.get("deadline")
                    live = (
                        isinstance(deadline, (int, float))
                        and deadline > now
                    )
                    if owner == worker:
                        pass  # re-claiming our own lease renews it
                    elif live:
                        decision.pending += 1
                        continue
                    else:
                        # Expired (or corrupt) lease: steal, unless
                        # the run has burned too many workers already.
                        victims = [
                            victim
                            for victim in entry.get("victims", ())
                            if isinstance(victim, str)
                        ]
                        if isinstance(owner, str) and owner not in victims:
                            victims.append(owner)
                        if len(victims) >= poison_after:
                            points[point_id] = {
                                "status": "poisoned",
                                "victims": victims,
                                "steals": entry.get("steals", 0),
                                "reason": (
                                    f"lease expired under {len(victims)} "
                                    f"distinct workers"
                                ),
                            }
                            decision.poisoned.append(point_id)
                            continue
                        stolen_from = owner if isinstance(owner, str) else None
                        entry = dict(entry, victims=victims)
                if len(decision.claimed) >= limit:
                    decision.remaining += 1
                    continue
                claim: dict = {
                    "worker": worker,
                    "deadline": round(now + lease_s, 3),
                }
                if host is not None:
                    claim["host"] = host
                if pid is not None:
                    claim["pid"] = pid
                new_entry: dict = {"status": "claimed", "claim": claim}
                if entry.get("victims"):
                    new_entry["victims"] = entry["victims"]
                steals = entry.get("steals", 0)
                if stolen_from is not None:
                    steals = int(steals) + 1
                    claim["stolen_from"] = stolen_from
                    decision.stolen.append(point_id)
                if steals:
                    new_entry["steals"] = steals
                points[point_id] = new_entry
                decision.claimed.append(point_id)
            if decision.claimed or decision.poisoned:
                atomic_write_json(self.path, payload)
        return decision

    def renew_claims(
        self,
        point_ids: Sequence[str],
        *,
        worker: str,
        lease_s: float = 30.0,
        now: float | None = None,
    ) -> list[str]:
        """Heartbeat: extend the lease deadline of every point in
        *point_ids* still claimed by *worker*; returns the renewed
        ids.  A point that was stolen in the meantime (or completed by
        its thief) is *not* renewed — the worker learns its lease is
        gone and can stop caring about the duplicate execution
        (results are content-addressed, so duplicates are identical).
        """
        now = time.time() if now is None else now
        renewed: list[str] = []
        with self.writer_lock(jitter_key=worker):
            payload = self.load()
            payload["version"] = MANIFEST_VERSION
            points = payload["points"]
            for point_id in point_ids:
                entry = points.get(point_id)
                if not isinstance(entry, dict):
                    continue
                claim = entry.get("claim")
                if (
                    entry.get("status") == "claimed"
                    and isinstance(claim, dict)
                    and claim.get("worker") == worker
                ):
                    claim["deadline"] = round(now + lease_s, 3)
                    renewed.append(point_id)
            if renewed:
                atomic_write_json(self.path, payload)
        return renewed

    def release_claims(
        self, point_ids: Sequence[str], *, worker: str
    ) -> int:
        """Return the claims *worker* still holds on *point_ids* to the
        claimable pool (graceful drain); returns how many were
        released.  Steal history is preserved."""
        released = 0
        with self.writer_lock(jitter_key=worker):
            payload = self.load()
            payload["version"] = MANIFEST_VERSION
            points = payload["points"]
            for point_id in point_ids:
                entry = points.get(point_id)
                if not isinstance(entry, dict):
                    continue
                claim = entry.get("claim")
                if (
                    entry.get("status") == "claimed"
                    and isinstance(claim, dict)
                    and claim.get("worker") == worker
                ):
                    replacement: dict = {"status": "started"}
                    for key in ("victims", "steals"):
                        if entry.get(key):
                            replacement[key] = entry[key]
                    points[point_id] = replacement
                    released += 1
            if released:
                atomic_write_json(self.path, payload)
        return released

    def claims(self) -> dict[str, dict]:
        """Point id → live claim entry for every currently claimed
        point (a read-only view for monitors and tests)."""
        return {
            point_id: dict(entry["claim"])
            for point_id, entry in self.load()["points"].items()
            if isinstance(entry, dict)
            and entry.get("status") == "claimed"
            and isinstance(entry.get("claim"), dict)
        }

    def fleet_accounting(self) -> dict[str, dict]:
        """Per-worker tallies from worker-attributed entries: runs
        ``completed`` / ``stolen`` (completed after stealing) /
        ``failed`` per worker id — what
        :meth:`~repro.fleet.dispatcher.ExecutionReport.summary` reports as
        ``by_worker`` after a fleet campaign."""
        accounting: dict[str, dict] = {}
        for entry in self.load()["points"].values():
            if not isinstance(entry, dict):
                continue
            worker = entry.get("worker")
            if not isinstance(worker, str):
                continue
            tally = accounting.setdefault(
                worker, {"completed": 0, "stolen": 0, "failed": 0}
            )
            if entry.get("status") == "complete":
                tally["completed"] += 1
                if entry.get("steals"):
                    tally["stolen"] += 1
            elif entry.get("status") == "failed":
                tally["failed"] += 1
        return {worker: accounting[worker] for worker in sorted(accounting)}

    # -- merging manifests ----------------------------------------------
    def merge_from(self, *sources: "CampaignManifest") -> int:
        """Fold other manifests of this campaign (a fleet's per-worker
        records) into this one; returns the number of point entries
        absorbed.

        Point conflicts resolve by status precedence (``complete`` >
        ``failed`` > ``poisoned`` > ``claimed`` > ``started``), so a
        point that any source finished is finished in the union.
        Sources bound to a *different* campaign fingerprint are
        refused with :class:`~repro.errors.ConfigError` — merging
        unrelated campaigns would fabricate a resume state.  The
        merged manifest is published in one atomic rewrite, under the
        writer lock.
        """
        with self.writer_lock():
            payload = self.load()
            payload["version"] = MANIFEST_VERSION
            points = payload["points"]
            campaign = payload.get("campaign")
            absorbed = 0
            for source in sources:
                other = source.load()
                other_campaign = other.get("campaign")
                if isinstance(other_campaign, dict):
                    if (
                        isinstance(campaign, dict)
                        and campaign.get("plan") != other_campaign.get("plan")
                    ):
                        raise ConfigError(
                            f"refusing to merge {source.path}: campaign "
                            f"{other_campaign.get('plan')!r} != "
                            f"{campaign.get('plan')!r}"
                        )
                    if campaign is None:
                        # Adopt the plan identity, but not the shard
                        # slice: the union is no single shard.
                        campaign = {
                            k: v
                            for k, v in other_campaign.items()
                            if k != "shard"
                        }
                for point_id, entry in other.get("points", {}).items():
                    if not isinstance(entry, dict):
                        continue
                    current = points.get(point_id)
                    new_rank = _STATUS_RANK.get(entry.get("status"), -1)
                    old_rank = (
                        _STATUS_RANK.get(current.get("status"), -1)
                        if isinstance(current, dict)
                        else -1
                    )
                    if new_rank > old_rank:
                        points[point_id] = entry
                        absorbed += 1
            if campaign is not None:
                payload["campaign"] = campaign
            atomic_write_json(self.path, payload)
        return absorbed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CampaignManifest({self.path})"


def _lock_jitter(jitter_key: str | None, attempt: int) -> float:
    """Deterministic jitter factor in [0.5, 1.5): a pure function of
    ``(jitter_key or pid, attempt)``, so contention tests and chaos
    campaigns replay the same backoff schedule while distinct workers
    still decorrelate."""
    key = jitter_key if jitter_key is not None else str(os.getpid())
    digest = hashlib.sha256(f"{key}|{attempt}".encode()).digest()
    return 0.5 + int.from_bytes(digest[:8], "big") / 2**64
