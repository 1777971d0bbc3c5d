"""The fleet worker: one claim → execute → checkpoint → renew loop.

A :class:`FleetWorker` owns no fixed slice of the campaign.  It
repeatedly claims a small batch of unfinished runs from the shared
campaign manifest under a heartbeat-renewed lease, executes them
serially through an ordinary
:class:`~repro.engine.session.SimulationSession` (same cache keys,
same retry semantics as every other execution path), and checkpoints
each completion back — to the shared claim table *and* to a private
per-worker manifest, so the end-of-campaign fold can heal the shared
table even if chaos scribbled over it.

Crash-tolerance properties this file is responsible for:

* **Leases, not ownership** — a claim carries worker id / host / pid
  and a deadline; a background heartbeat thread renews it.  Death or a
  long stall lets the deadline pass, and survivors steal the run.
* **Graceful drain** — :meth:`FleetWorker.drain` (wired to SIGTERM by
  the CLI) finishes the run in flight, releases the remaining claims
  back to the pool, and exits cleanly.
* **Harmless duplicates** — a stolen run still being executed by its
  not-actually-dead original worker completes twice with *identical*
  content-addressed results; the disk-cache publish is atomic and the
  manifest merge is status-precedence, so duplicates cannot diverge.
* **Seeded chaos** — host-level faults (:mod:`repro.faults`) fire as a
  pure function of ``(seed, worker id, point)``: a worker kill right
  after the claim commits (the worst possible moment), a scribbled
  lease, or silently skipped heartbeats.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import socket
import threading
import time

from ..engine.cache import ResultCache, global_cache
from ..engine.campaign import DEFAULT_POISON_AFTER, CampaignManifest
from ..engine.executor import SerialExecutor
from ..engine.fingerprint import canonical
from ..engine.resilience import RetryPolicy, RunFailure
from ..engine.session import SimulationSession
from ..errors import ConcurrencyError, ProtocolError
from ..faults import FaultPlan
from ..machine.chip import Chip
from ..obs import Telemetry, get_telemetry
from ..plan.planner import CampaignPlan, run_point_id
from .. import ioutil

__all__ = ["FleetWorker", "KILL_EXIT_STATUS"]

#: Exit status of an injected worker kill (distinct from the run-level
#: ``CRASH_EXIT_STATUS`` so dispatcher logs tell host chaos apart from
#: pool-worker chaos).
KILL_EXIT_STATUS = 43

_UNSET = object()


def _poll_jitter(worker_id: str, cycle: int) -> float:
    """Deterministic factor in [0.5, 1.5) decorrelating idle polls of
    different workers (same construction as the manifest lock jitter)."""
    digest = hashlib.sha256(f"{worker_id}|poll|{cycle}".encode()).digest()
    return 0.5 + int.from_bytes(digest[:8], "big") / 2**64


class FleetWorker:
    """One elastic worker process over a shared campaign manifest.

    Parameters
    ----------
    campaign / chip:
        The compiled plan and the chip it targets (every worker
        recompiles the same plan from the same arguments; plan
        fingerprints are content-addressed, so they provably agree).
    manifest:
        The *shared* claim table.
    worker_id:
        Stable identity of this worker (claims, steals and completions
        are attributed to it; fault draws are keyed by it, so a
        respawned worker under a new id gets fresh draws).
    private_manifest:
        Optional per-worker completion record (no contention; folded
        into the shared table at campaign end to heal chaos damage).
    batch / lease_s / heartbeat_s / poison_after / poll_s:
        Claim batch size, lease duration, renewal period (default
        ``lease_s / 4``), distinct-victim quarantine threshold, and
        idle poll period while other workers hold the remaining runs.
    serve:
        Optional ``(host, port)`` of a running ``repro-noise serve``
        endpoint; claimed runs are probed against its disk tier
        (``fetch``) before executing, so a fleet and the always-on
        service share one answer space.
    faults:
        Host-level :class:`~repro.faults.FaultPlan` (environment
        default); only its ``worker_kill`` / ``lease_corrupt`` /
        ``heartbeat_stall`` decisions are consulted here — run-level
        kinds keep flowing through the session layer as usual.
    live_path / flush_s:
        When ``live_path`` is set, a background thread atomically
        rewrites that file every ``flush_s`` seconds with the worker's
        live sidecar snapshot (state, held leases, accounting summary,
        telemetry merge payload) — what the dispatcher's in-flight
        aggregator and ``repro-noise top`` read *during* the campaign.
    exit_fn:
        How an injected worker kill dies (``os._exit``; tests inject a
        recording stub so the suite survives its own chaos).
    """

    def __init__(
        self,
        campaign: CampaignPlan,
        chip: Chip,
        manifest: CampaignManifest,
        *,
        worker_id: str,
        cache: ResultCache | None = None,
        private_manifest: CampaignManifest | None = None,
        batch: int = 4,
        lease_s: float = 20.0,
        heartbeat_s: float | None = None,
        poison_after: int = DEFAULT_POISON_AFTER,
        poll_s: float = 0.5,
        retry: RetryPolicy | None = None,
        faults: object = _UNSET,
        serve: tuple[str, int] | None = None,
        telemetry: Telemetry | None = None,
        live_path=None,
        flush_s: float = 2.0,
        exit_fn=os._exit,
    ):
        self.campaign = campaign
        self.chip = chip
        self.manifest = manifest
        self.worker_id = worker_id
        self.cache = cache if cache is not None else global_cache()
        self.private_manifest = private_manifest
        self.batch = batch
        self.lease_s = lease_s
        self.heartbeat_s = heartbeat_s or max(lease_s / 4.0, 0.05)
        self.poison_after = poison_after
        self.poll_s = poll_s
        self.retry = retry
        self.faults = (
            FaultPlan.from_env() if faults is _UNSET else faults
        )
        self.serve = serve
        self.telemetry = telemetry or get_telemetry()
        self.host = socket.gethostname()
        self._exit = exit_fn
        self._sessions: dict[str, SimulationSession] = {}
        self._serve_client = None
        self._serve_down = False
        self._held: set[str] = set()
        self._held_lock = threading.Lock()
        self._draining = threading.Event()
        self._hb_stop = threading.Event()
        self.live_path = live_path
        self.flush_s = flush_s
        self.state = "starting"
        self.current_point: str | None = None
        self._flush_stop = threading.Event()
        self.summary: dict = {
            "worker": worker_id,
            "claimed": 0,
            "stolen": 0,
            "completed": 0,
            "failed": 0,
            "released": 0,
            "poisoned": 0,
            "serve_hits": 0,
            "renewals": 0,
            "stalls": 0,
            "lost_leases": 0,
        }

    # -- lifecycle -------------------------------------------------------
    def drain(self) -> None:
        """Finish the run in flight, release remaining claims, exit
        the loop cleanly (the SIGTERM path)."""
        self._draining.set()

    def run(self) -> dict:
        """The worker main loop; returns the accounting summary."""
        self.telemetry.emit(
            "fleet.worker.started",
            worker=self.worker_id,
            pid=os.getpid(),
            host=self.host,
        )
        candidates = self._candidates()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            name=f"fleet-heartbeat-{self.worker_id}",
            daemon=True,
        )
        heartbeat.start()
        flusher: threading.Thread | None = None
        if self.live_path is not None:
            self._flush_live()  # first sidecar before any claim
            flusher = threading.Thread(
                target=self._flush_loop,
                name=f"fleet-flush-{self.worker_id}",
                daemon=True,
            )
            flusher.start()
        cycle = 0
        try:
            while not self._draining.is_set():
                cycle += 1
                self.state = "claiming"
                try:
                    decision = self.manifest.claim_batch(
                        candidates,
                        worker=self.worker_id,
                        limit=self.batch,
                        lease_s=self.lease_s,
                        host=self.host,
                        pid=os.getpid(),
                        poison_after=self.poison_after,
                    )
                except ConcurrencyError:
                    # Extreme lock contention: the claim call already
                    # burned its own retry budget; yield and try again.
                    self._count("fleet.claim_contention")
                    time.sleep(self.poll_s * _poll_jitter(self.worker_id, cycle))
                    continue
                self._account_claim(decision)
                if not decision.claimed:
                    if decision.exhausted:
                        break
                    # Everything unfinished is under someone else's
                    # live lease; poll again after a decorrelated nap.
                    self.state = "idle"
                    time.sleep(self.poll_s * _poll_jitter(self.worker_id, cycle))
                    continue
                with self._held_lock:
                    self._held.update(decision.claimed)
                self._inject_worker_kill(decision.claimed)
                self._inject_lease_corruption(decision.claimed)
                for point in decision.claimed:
                    if self._draining.is_set():
                        break
                    self._execute(point)
        finally:
            self.state = "draining" if self._draining.is_set() else "stopped"
            self._hb_stop.set()
            heartbeat.join(timeout=5.0)
            with self._held_lock:
                leftovers = sorted(self._held)
                self._held.clear()
            if leftovers:
                try:
                    self.summary["released"] = self.manifest.release_claims(
                        leftovers, worker=self.worker_id
                    )
                except ConcurrencyError:  # pragma: no cover - best effort
                    pass
            self.state = "stopped"
            self._flush_stop.set()
            if flusher is not None:
                flusher.join(timeout=5.0)
            if self.live_path is not None:
                self._flush_live()  # final sidecar carries the summary
            self.telemetry.emit(
                "fleet.worker.stopped",
                worker=self.worker_id,
                pid=os.getpid(),
                **{k: v for k, v in self.summary.items() if k != "worker"},
            )
        return self.summary

    # -- claiming --------------------------------------------------------
    def _candidates(self) -> list[str]:
        """All plan points, rotated by a stable per-worker offset so
        concurrent claimers scan from different starting runs (less
        pending-contention, same set)."""
        points = [run_point_id(fp) for fp in self.campaign.unique]
        if not points:
            return points
        digest = hashlib.sha256(self.worker_id.encode()).digest()
        offset = int.from_bytes(digest[:4], "big") % len(points)
        return points[offset:] + points[:offset]

    def _account_claim(self, decision) -> None:
        self.summary["claimed"] += len(decision.claimed)
        self.summary["stolen"] += len(decision.stolen)
        self.summary["poisoned"] += len(decision.poisoned)
        self._count("fleet.claims", len(decision.claimed))
        self._count("fleet.steals", len(decision.stolen))
        self._count("fleet.poisoned", len(decision.poisoned))
        for point in decision.stolen:
            self.telemetry.emit(
                "fleet.stolen", worker=self.worker_id, point=point
            )
        for point in decision.poisoned:
            self.telemetry.emit(
                "fleet.poisoned", worker=self.worker_id, point=point
            )

    # -- chaos hooks -----------------------------------------------------
    def _inject_worker_kill(self, claimed: list[str]) -> None:
        """Die mid-claim — leases committed, nothing executed — when
        the fault plan says so.  The worst-case death the lease
        machinery exists for."""
        if self.faults is None or not self.faults.host_active:
            return
        for point in claimed:
            if self.faults.decide_host(
                "worker_kill", f"{self.worker_id}|{point}"
            ):
                self.telemetry.emit(
                    "fleet.fault.worker_kill",
                    worker=self.worker_id,
                    point=point,
                )
                self._exit(KILL_EXIT_STATUS)
                return  # only reached when exit_fn is a test stub

    def _inject_lease_corruption(self, claimed: list[str]) -> None:
        """Scribble garbage over this worker's own claim entries when
        the fault plan says so; the manifest must treat the malformed
        lease as expired, so the run is immediately stealable (and the
        original execution becomes a harmless duplicate)."""
        if self.faults is None or not self.faults.host_active:
            return
        for point in claimed:
            if not self.faults.decide_host(
                "lease_corrupt", f"{self.worker_id}|{point}"
            ):
                continue
            with self.manifest.writer_lock(jitter_key=self.worker_id):
                payload = self.manifest.load()
                entry = payload["points"].get(point)
                if isinstance(entry, dict) and entry.get("status") == "claimed":
                    entry["claim"] = {
                        "worker": self.worker_id,
                        "deadline": "0xGARBAGE",
                    }
                    ioutil.atomic_write_json(self.manifest.path, payload)
            self._count("fleet.lease_corrupted")
            self.telemetry.emit(
                "fleet.fault.lease_corrupt",
                worker=self.worker_id,
                point=point,
            )

    # -- execution -------------------------------------------------------
    def _execute(self, point: str) -> None:
        fingerprint = point.removeprefix("run:")
        entry = self.campaign.unique.get(fingerprint)
        self.state = "executing"
        self.current_point = point
        try:
            if entry is None:  # defensive: claim table named a stranger
                self.manifest.mark_failed(
                    point, "not in this campaign plan", worker=self.worker_id
                )
                self.summary["failed"] += 1
                return
            self._probe_serve(fingerprint)
            session = self._session_for(entry.run.options)
            start = time.perf_counter()
            result = session.run(list(entry.run.mapping), entry.run.tag)
            elapsed = time.perf_counter() - start
            self.telemetry.observe(
                f"fleet.worker.{self.worker_id}.run_seconds", elapsed
            )
            if isinstance(result, RunFailure):
                self.summary["failed"] += 1
                self._count("fleet.failed")
                self.manifest.mark_failed(
                    point, result.describe(), worker=self.worker_id
                )
                if self.private_manifest is not None:
                    self.private_manifest.mark_failed(
                        point, result.describe(), worker=self.worker_id
                    )
            else:
                self.summary["completed"] += 1
                self._count("fleet.completed")
                self.manifest.mark_many_complete(
                    [point], worker=self.worker_id
                )
                if self.private_manifest is not None:
                    self.private_manifest.mark_many_complete(
                        [point], worker=self.worker_id
                    )
        finally:
            self.current_point = None
            with self._held_lock:
                self._held.discard(point)

    def _session_for(self, options) -> SimulationSession:
        key = canonical(options)
        session = self._sessions.get(key)
        if session is None:
            session = SimulationSession(
                self.chip,
                options,
                cache=self.cache,
                # The fleet is the fan-out: a worker never starts a pool.
                executor=SerialExecutor(),
                retry=self.retry,
                on_failure="collect",
                telemetry=self.telemetry,
            )
            self._sessions[key] = session
        return session

    def _probe_serve(self, fingerprint: str) -> None:
        """Ask the serve endpoint's disk tier for this run before
        executing it; a hit lands in the local cache and the session
        replays it.  The endpoint going away mid-campaign degrades to
        plain execution (once, with an event — not one error per run).
        """
        if self.serve is None or self._serve_down:
            return
        if self.cache.get(fingerprint) is not None:
            return
        try:
            client = self._serve_client
            if client is None:
                from ..serve.client import ServeClient

                client = self._serve_client = ServeClient(*self.serve)
            raw = client.fetch(fingerprint)
            if raw is None:
                self._count("fleet.serve_misses")
                return
            self.cache.put(fingerprint, pickle.loads(raw))
            self.summary["serve_hits"] += 1
            self._count("fleet.serve_hits")
        except (OSError, ProtocolError, pickle.PickleError) as error:
            self._serve_down = True
            self.telemetry.emit(
                "fleet.serve.unavailable",
                worker=self.worker_id,
                error=f"{type(error).__name__}: {error}",
            )

    # -- heartbeat -------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        """Renew held leases every ``heartbeat_s`` on a *separate*
        manifest handle (the writer lock is reentrant per thread, so
        sharing the main thread's instance would let both threads into
        the critical section at once)."""
        hb_manifest = CampaignManifest(self.manifest.path)
        cycle = 0
        while not self._hb_stop.wait(self.heartbeat_s):
            cycle += 1
            if (
                self.faults is not None
                and self.faults.host_active
                and self.faults.decide_host(
                    "heartbeat_stall", f"{self.worker_id}|{cycle}"
                )
            ):
                self.summary["stalls"] += 1
                self._count("fleet.stalls")
                self.telemetry.emit(
                    "fleet.fault.heartbeat_stall",
                    worker=self.worker_id,
                    cycle=cycle,
                )
                continue
            with self._held_lock:
                held = sorted(self._held)
            if not held:
                continue
            try:
                renewed = hb_manifest.renew_claims(
                    held, worker=self.worker_id, lease_s=self.lease_s
                )
            except ConcurrencyError:
                continue  # contention; the next beat retries
            self.summary["renewals"] += len(renewed)
            self._count("fleet.renewals", len(renewed))
            lost = set(held) - set(renewed)
            if lost:
                # Stolen out from under us (or completed by the thief).
                # Keep executing the run in flight — the duplicate is
                # byte-identical — but account for the loss.
                self.summary["lost_leases"] += len(lost)
                self._count("fleet.lease_lost", len(lost))

    # -- live sidecar ----------------------------------------------------
    def live_snapshot(self) -> dict:
        """The worker's live sidecar record: lease state + accounting
        + a telemetry merge payload the aggregator can fold."""
        with self._held_lock:
            held = sorted(self._held)
        return {
            "ts": round(time.time(), 6),
            "worker": self.worker_id,
            "pid": os.getpid(),
            "host": self.host,
            "state": self.state,
            "point": self.current_point,
            "held": held,
            "summary": dict(self.summary),
            "telemetry": self._safe_merge_payload(),
        }

    def _safe_merge_payload(self) -> dict:
        # The main thread mutates counters while the flush thread
        # copies them; retry the snapshot until it settles.
        for _ in range(8):
            try:
                return self.telemetry.merge_payload()
            except RuntimeError:
                continue
        return {"counters": {}}  # pragma: no cover - pathological churn

    def _flush_live(self) -> None:
        try:
            ioutil.atomic_write_json(self.live_path, self.live_snapshot())
        except OSError:  # pragma: no cover - disk full / dir vanished
            self._count("fleet.flush_errors")

    def _flush_loop(self) -> None:
        while not self._flush_stop.wait(self.flush_s):
            self._flush_live()

    # -- accounting ------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if amount:
            self.telemetry.increment(name, amount)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FleetWorker({self.worker_id!r}, "
            f"held={len(self._held)}, manifest={self.manifest.path})"
        )
