"""The fleet dispatcher: spawn, monitor, respawn, fold.

``repro-noise fleet --workers N`` builds one of these.  It lays out a
campaign directory::

    <campaign-dir>/
      campaign-manifest.json     shared claim table (all workers)
      cache/                     folded result cache (after the fold)
      events.jsonl               folded event log (after the fold)
      live-status.json           in-flight aggregate (during the run)
      <experiment>.json/.txt     the exports ``repro-noise fleet`` writes
      index.json, telemetry.json   from the folded cache (after the fold)
      workers/<id>/
        cache/                   the worker's private result cache
        campaign-manifest.json   the worker's private completion record
        events.jsonl             the worker's event log
        live-telemetry.json      the worker's live sidecar (periodic)
        log.txt                  the worker's stdout/stderr

spawns N ``fleet-worker`` subprocesses (locally, or through an ssh
command template for remote hosts), and watches them.  A worker that
*crashes* (nonzero exit — e.g. an injected ``worker_kill``) is
respawned under a fresh id within a bounded budget; its abandoned
leases expire and survivors steal them, so progress never depends on
the respawn.  A worker that exits cleanly found the campaign
exhausted.

The end-of-campaign **fold** unions the worker caches via
:func:`~repro.engine.cache.merge_cache_dirs` (entries are
content-addressed, so two workers can never disagree), folds worker
manifests into the shared table via
:meth:`~repro.engine.campaign.CampaignManifest.merge_from` (healing
any chaos-scribbled claim entries — a private manifest records every
completion its worker made), and concatenates worker event logs into
one campaign log whose Chrome trace renders one lane per worker.

Each worker is a fresh interpreter whose numpy would otherwise start
one BLAS thread per core; the spawn environment pins
``OPENBLAS_NUM_THREADS=1`` (unless the user exported a value) so N
workers use N cores, not N × cores.
"""

from __future__ import annotations

import json
import os
import shlex
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..engine.cache import merge_cache_dirs
from ..engine.campaign import MANIFEST_NAME, CampaignManifest
from ..errors import ConfigError
from ..machine.chip import Chip
from ..obs import Telemetry, get_telemetry
from ..plan.planner import CampaignPlan, run_point_id
from .live import FleetLiveAggregator

__all__ = ["ExecutionReport", "FleetDispatcher"]


@dataclass
class ExecutionReport:
    """What a fleet campaign did, as its fold counted it."""

    plan: str                      # campaign plan fingerprint
    runs: int                      # unique runs in the plan
    executed: int = 0              # solved by a worker
    replayed: int = 0              # served from a cache
    failed: int = 0                # exhausted their retry budget
    #: Per-worker accounting: worker id → {"completed", "stolen",
    #: "failed"} (see :meth:`CampaignManifest.fleet_accounting`).
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


class FleetDispatcher:
    """Run *campaign* to completion with an elastic worker fleet.

    Parameters
    ----------
    campaign / chip:
        The compiled plan (used for the run census and the fold) and
        its chip.
    campaign_dir:
        The shared directory sketched in the module docstring.
    worker_command:
        The ``fleet-worker`` invocation *minus* the per-worker parts —
        the dispatcher appends ``--worker-id``/``--workdir`` itself.
        Built by the CLI so every context/engine flag the user passed
        reaches the workers verbatim.
    workers:
        Fleet size.
    hosts / ssh_template:
        Second transport: with ``hosts=["a", "b"]`` and a template
        like ``"ssh {host} {command}"``, workers round-robin over the
        hosts and each local command is wrapped through the template
        (``{command}`` is the shell-quoted worker invocation).  The
        default (no template) spawns plain local subprocesses.
    slurm_template:
        Third transport, mutually exclusive with ``ssh_template``: a
        Slurm launcher template like ``"srun -N1 -n1 -J {job}
        {command}"``.  ``{command}`` (required) is the shell-quoted
        worker invocation and ``{job}`` (optional) a per-worker job
        name; the scheduler picks the host, so ``hosts`` does not
        apply.  The launcher must run the command to completion in the
        foreground (``srun``, not ``sbatch``) — the dispatcher's
        crash/respawn monitor watches the launcher's exit status.
    respawn:
        Total budget of crash respawns across the whole campaign
        (clean exits never consume it).
    poll_s / timeout_s:
        Monitor poll period and optional hard wall-clock ceiling
        (workers are terminated and the fold still runs, reporting the
        partial state).
    live_s:
        Period of the in-flight aggregation: every ``live_s`` the
        monitor folds the worker sidecars + the shared lease table
        into ``live-status.json`` (state transitions, steals, live
        completion rate) *while the campaign runs*.  ``0`` disables
        live aggregation.
    """

    def __init__(
        self,
        campaign: CampaignPlan,
        chip: Chip,
        campaign_dir: str | Path,
        worker_command: list[str],
        *,
        workers: int = 4,
        hosts: list[str] | None = None,
        ssh_template: str | None = None,
        slurm_template: str | None = None,
        respawn: int = 8,
        poll_s: float = 0.2,
        timeout_s: float | None = None,
        live_s: float = 1.0,
        telemetry: Telemetry | None = None,
    ):
        if workers < 1:
            raise ConfigError(f"fleet needs >= 1 worker (got {workers})")
        if ssh_template is not None and "{command}" not in ssh_template:
            raise ConfigError(
                "ssh template must contain '{command}' "
                "(and usually '{host}')"
            )
        if slurm_template is not None:
            if ssh_template is not None:
                raise ConfigError(
                    "--ssh-template and --slurm-template are mutually "
                    "exclusive transports"
                )
            if "{command}" not in slurm_template:
                raise ConfigError(
                    "slurm template must contain '{command}' "
                    "(and may use '{job}')"
                )
            try:
                slurm_template.format(command="true", job="probe")
            except (KeyError, IndexError) as error:
                raise ConfigError(
                    f"slurm template has an unknown placeholder ({error}); "
                    "supported placeholders are {command} and {job}"
                )
        if hosts and ssh_template is None:
            raise ConfigError("--hosts needs an --ssh-template transport")
        self.campaign = campaign
        self.chip = chip
        self.campaign_dir = Path(campaign_dir)
        self.worker_command = list(worker_command)
        self.workers = workers
        self.hosts = list(hosts) if hosts else []
        self.ssh_template = ssh_template
        self.slurm_template = slurm_template
        self.respawn_budget = respawn
        self.poll_s = poll_s
        self.timeout_s = timeout_s
        self.telemetry = telemetry or get_telemetry()
        self.manifest = CampaignManifest(self.campaign_dir / MANIFEST_NAME)
        self.live_s = live_s
        self.live: FleetLiveAggregator | None = (
            FleetLiveAggregator(
                self.campaign_dir,
                manifest=self.manifest,
                total_runs=campaign.total_unique,
                telemetry=self.telemetry,
            )
            if live_s > 0 else None
        )
        self.unfinished: list[str] = []
        self.poisoned: list[str] = []
        self.failed: list[str] = []
        self._procs: dict[str, subprocess.Popen] = {}
        self._logs: list = []
        self._respawns = 0
        self._draining = False

    # -- worker plumbing -------------------------------------------------
    def worker_dir(self, worker_id: str) -> Path:
        return self.campaign_dir / "workers" / worker_id

    def _spawn_command(self, worker_id: str, slot: int) -> list[str]:
        workdir = self.worker_dir(worker_id)
        command = self.worker_command + [
            "--worker-id", worker_id,
            "--workdir", str(workdir),
        ]
        if self.slurm_template is not None:
            wrapped = self.slurm_template.format(
                command=shlex.join(command),
                job=f"repro-{self.campaign_dir.name}-{worker_id}",
            )
            return shlex.split(wrapped)
        if self.ssh_template is None:
            return command
        host = self.hosts[slot % len(self.hosts)] if self.hosts else "localhost"
        wrapped = self.ssh_template.format(
            host=host, command=shlex.join(command)
        )
        return shlex.split(wrapped)

    def _spawn(self, worker_id: str, slot: int) -> None:
        workdir = self.worker_dir(worker_id)
        (workdir / "cache").mkdir(parents=True, exist_ok=True)
        log = (workdir / "log.txt").open("ab")
        self._logs.append(log)
        env = dict(os.environ)
        # The fleet is the parallelism: one BLAS thread per worker.
        env.setdefault("OPENBLAS_NUM_THREADS", "1")
        # The workers import repro the same way this process did; with
        # a source-tree launch that path may only live in sys.path.
        package_root = str(Path(__file__).resolve().parents[2])
        paths = env.get("PYTHONPATH", "").split(os.pathsep)
        if package_root not in paths:
            env["PYTHONPATH"] = os.pathsep.join(
                [package_root] + [p for p in paths if p]
            )
        self._procs[worker_id] = subprocess.Popen(
            self._spawn_command(worker_id, slot),
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
        )
        self.telemetry.increment("fleet.workers_spawned")
        self.telemetry.emit(
            "fleet.dispatcher.spawned",
            worker=worker_id,
            pid=self._procs[worker_id].pid,
        )

    # -- main ------------------------------------------------------------
    def run(self) -> ExecutionReport:
        """Dispatch the fleet, wait it out, fold, and report."""
        plan_fp = self.campaign.fingerprint()
        self.campaign_dir.mkdir(parents=True, exist_ok=True)
        self.manifest.bind_campaign({"plan": plan_fp, "shard": None})
        self.telemetry.emit(
            "fleet.dispatcher.started",
            plan=plan_fp,
            workers=self.workers,
            runs=self.campaign.total_unique,
        )
        for slot in range(self.workers):
            self._spawn(f"w{slot}", slot)
        deadline = (
            time.monotonic() + self.timeout_s if self.timeout_s else None
        )
        try:
            self._monitor(deadline)
        except KeyboardInterrupt:
            self.stop()
            self._monitor(time.monotonic() + 30.0)
        finally:
            for log in self._logs:
                try:
                    log.close()
                except OSError:  # pragma: no cover - teardown best effort
                    pass
        return self._fold(plan_fp)

    def stop(self) -> None:
        """SIGTERM every live worker (they drain: finish the run in
        flight, release their claims, exit 0)."""
        self._draining = True
        for proc in self._procs.values():
            if proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGTERM)
                except OSError:  # pragma: no cover - it just exited
                    pass

    def _monitor(self, deadline: float | None) -> None:
        slot = self.workers
        next_live = time.monotonic()
        while True:
            if self.live is not None and time.monotonic() >= next_live:
                next_live = time.monotonic() + self.live_s
                try:
                    self.live.poll()
                except Exception:  # noqa: BLE001 - observer must not kill
                    self.telemetry.increment("fleet.live.poll_errors")
            live = 0
            for worker_id, proc in list(self._procs.items()):
                status = proc.poll()
                if status is None:
                    live += 1
                    continue
                if status != 0 and not self._draining:
                    self.telemetry.increment("fleet.workers_crashed")
                    self.telemetry.emit(
                        "fleet.dispatcher.crashed",
                        worker=worker_id,
                        status=status,
                    )
                    if self._respawns < self.respawn_budget:
                        self._respawns += 1
                        del self._procs[worker_id]
                        replacement = f"{worker_id}r{self._respawns}"
                        self._spawn(replacement, slot)
                        slot += 1
                        live += 1
                        self.telemetry.increment("fleet.workers_respawned")
            if live == 0:
                return
            if deadline is not None and time.monotonic() > deadline:
                self.stop()
                deadline = None  # drain, then fall out on live == 0
            time.sleep(self.poll_s)

    # -- fold ------------------------------------------------------------
    def _fold(self, plan_fp: str) -> ExecutionReport:
        """Union the per-worker caches/manifests/event logs and build
        the campaign report from the healed shared manifest."""
        worker_dirs = sorted(
            d for d in (self.campaign_dir / "workers").glob("*") if d.is_dir()
        )
        copied, skipped = merge_cache_dirs(
            self.campaign_dir / "cache",
            *[d / "cache" for d in worker_dirs],
        )
        private = [
            CampaignManifest(d / MANIFEST_NAME)
            for d in worker_dirs
            if (d / MANIFEST_NAME).exists()
        ]
        if private:
            self.manifest.merge_from(*private)
        self._fold_events(worker_dirs)
        # Fold the workers' telemetry merge-payloads fleet-wide, so
        # fleet.* / engine.* counters of the whole campaign read from
        # this process (the claim counters CI asserts on).
        for d in worker_dirs:
            payload_path = d / "fleet-telemetry.json"
            try:
                self.telemetry.merge(json.loads(payload_path.read_text()))
            except (OSError, ValueError):
                continue

        statuses = self.manifest.statuses()
        by_worker = self.manifest.fleet_accounting()
        report = ExecutionReport(
            plan=plan_fp,
            runs=self.campaign.total_unique,
            by_worker=by_worker,
        )
        executed = sum(t["completed"] for t in by_worker.values())
        complete = 0
        self.unfinished = []
        self.poisoned = []
        self.failed = []
        for fingerprint in self.campaign.unique:
            status = statuses.get(run_point_id(fingerprint))
            if status == "complete":
                complete += 1
            elif status == "failed":
                self.failed.append(fingerprint)
            else:
                if status == "poisoned":
                    self.poisoned.append(fingerprint)
                self.unfinished.append(fingerprint)
        report.executed = min(executed, complete)
        report.replayed = complete - report.executed
        report.failed = len(self.failed)
        self.manifest.mark_complete("shard:fleet", meta=report.summary())
        if self.live is not None:
            # Final status write: phase "folded" tells a tailing `top`
            # the campaign is over (and records what it folded to).
            try:
                self.live.finalize(report.summary())
            except Exception:  # noqa: BLE001 - observer must not kill
                self.telemetry.increment("fleet.live.poll_errors")
        self.telemetry.emit(
            "fleet.dispatcher.completed",
            plan=plan_fp,
            cache_copied=copied,
            cache_skipped=skipped,
            unfinished=len(self.unfinished),
            poisoned=len(self.poisoned),
            respawns=self._respawns,
            **{
                f"worker.{worker}.completed": tally["completed"]
                for worker, tally in by_worker.items()
            },
        )
        return report

    def _fold_events(self, worker_dirs: list[Path]) -> None:
        """Concatenate worker event logs (JSONL concatenation is a
        valid JSONL log; the trace exporter sorts by timestamp and
        lays one lane per worker)."""
        target = self.campaign_dir / "events.jsonl"
        with target.open("ab") as out:
            for d in worker_dirs:
                source = d / "events.jsonl"
                if not source.exists():
                    continue
                data = source.read_bytes()
                if data and not data.endswith(b"\n"):
                    data += b"\n"
                out.write(data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FleetDispatcher(workers={self.workers}, "
            f"dir={self.campaign_dir})"
        )
