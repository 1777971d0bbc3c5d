"""The fleet dispatcher: spawn-command transports, validation, and the
end-of-campaign fold.

Subprocess spawning itself is exercised by the CI chaos job (each
worker process rebuilds the experiment context — far too heavy for the
unit tier); here the fold runs over worker directories produced by
in-process :class:`FleetWorker` runs, which is the same contract.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import CampaignManifest, ResultCache
from repro.engine.campaign import MANIFEST_NAME
from repro.errors import ConfigError
from repro.fleet import FleetDispatcher, FleetWorker
from repro.fleet import dispatcher as dispatcher_module
from repro.obs import Telemetry
from repro.plan import run_point_id


def make_dispatcher(campaign, chip, tmp_path, **kwargs):
    kwargs.setdefault("telemetry", Telemetry())
    return FleetDispatcher(
        campaign, chip, tmp_path / "fleet", ["worker", "cmd"], **kwargs
    )


class TestValidation:
    def test_needs_at_least_one_worker(self, campaign, tiny_context,
                                       tmp_path):
        with pytest.raises(ConfigError):
            make_dispatcher(campaign, tiny_context.chip, tmp_path, workers=0)

    def test_ssh_template_needs_command_slot(self, campaign, tiny_context,
                                             tmp_path):
        with pytest.raises(ConfigError):
            make_dispatcher(
                campaign, tiny_context.chip, tmp_path,
                ssh_template="ssh {host} run-it",
            )

    def test_hosts_need_a_transport(self, campaign, tiny_context, tmp_path):
        with pytest.raises(ConfigError):
            make_dispatcher(
                campaign, tiny_context.chip, tmp_path, hosts=["a", "b"]
            )

    def test_slurm_template_needs_command_slot(self, campaign, tiny_context,
                                               tmp_path):
        with pytest.raises(ConfigError, match="must contain"):
            make_dispatcher(
                campaign, tiny_context.chip, tmp_path,
                slurm_template="srun --ntasks=1 run-it",
            )

    def test_slurm_template_rejects_unknown_placeholder(self, campaign,
                                                        tiny_context,
                                                        tmp_path):
        with pytest.raises(ConfigError, match="unknown placeholder"):
            make_dispatcher(
                campaign, tiny_context.chip, tmp_path,
                slurm_template="srun --partition={queue} {command}",
            )

    def test_slurm_and_ssh_are_mutually_exclusive(self, campaign,
                                                  tiny_context, tmp_path):
        with pytest.raises(ConfigError, match="mutually"):
            make_dispatcher(
                campaign, tiny_context.chip, tmp_path,
                ssh_template="ssh {host} {command}",
                slurm_template="srun {command}",
            )


class TestSpawnCommand:
    def test_local_command_appends_worker_identity(self, campaign,
                                                   tiny_context, tmp_path):
        dispatcher = make_dispatcher(campaign, tiny_context.chip, tmp_path)
        command = dispatcher._spawn_command("w0", 0)
        assert command == [
            "worker", "cmd",
            "--worker-id", "w0",
            "--workdir", str(dispatcher.worker_dir("w0")),
        ]

    def test_ssh_template_wraps_and_round_robins_hosts(self, campaign,
                                                       tiny_context,
                                                       tmp_path):
        dispatcher = make_dispatcher(
            campaign, tiny_context.chip, tmp_path,
            hosts=["alpha", "beta"], ssh_template="ssh {host} {command}",
        )
        first = dispatcher._spawn_command("w0", 0)
        second = dispatcher._spawn_command("w1", 1)
        third = dispatcher._spawn_command("w2", 2)
        assert first[:2] == ["ssh", "alpha"]
        assert second[:2] == ["ssh", "beta"]
        assert third[:2] == ["ssh", "alpha"]  # wraps around
        assert first[2:] == [
            "worker", "cmd",
            "--worker-id", "w0",
            "--workdir", str(dispatcher.worker_dir("w0")),
        ]

    def test_slurm_template_wraps_with_job_name(self, campaign,
                                                tiny_context, tmp_path):
        """The slurm transport is a foreground launcher: the worker
        command is substituted whole into ``{command}`` and ``{job}``
        names the allocation after the campaign dir and worker."""
        dispatcher = make_dispatcher(
            campaign, tiny_context.chip, tmp_path,
            slurm_template="srun --ntasks=1 --job-name={job} {command}",
        )
        command = dispatcher._spawn_command("w3", 3)
        assert command[:2] == ["srun", "--ntasks=1"]
        assert command[2] == (
            f"--job-name=repro-{dispatcher.campaign_dir.name}-w3"
        )
        assert command[3:] == [
            "worker", "cmd",
            "--worker-id", "w3",
            "--workdir", str(dispatcher.worker_dir("w3")),
        ]

    def test_slurm_template_without_job_slot(self, campaign, tiny_context,
                                             tmp_path):
        dispatcher = make_dispatcher(
            campaign, tiny_context.chip, tmp_path,
            slurm_template="srun {command}",
        )
        assert dispatcher._spawn_command("w0", 0) == [
            "srun",
            "worker", "cmd",
            "--worker-id", "w0",
            "--workdir", str(dispatcher.worker_dir("w0")),
        ]


class TestSpawnEnvironment:
    """Each worker is a fresh interpreter whose BLAS would start one
    thread per core; the fleet pins it to one unless the user chose."""

    def _spawned_env(self, campaign, chip, tmp_path, monkeypatch) -> dict:
        captured: dict = {}

        class _FakePopen:
            pid = 4242

            def __init__(self, command, **kwargs):
                captured.update(kwargs["env"])

        monkeypatch.setattr(dispatcher_module.subprocess, "Popen", _FakePopen)
        dispatcher = make_dispatcher(campaign, chip, tmp_path)
        try:
            dispatcher._spawn("w0", 0)
        finally:
            for log in dispatcher._logs:
                log.close()
        return captured

    def test_blas_defaults_to_one_thread(self, campaign, tiny_context,
                                         tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        env = self._spawned_env(
            campaign, tiny_context.chip, tmp_path, monkeypatch
        )
        assert env["OPENBLAS_NUM_THREADS"] == "1"

    def test_exported_blas_threads_are_kept(self, campaign, tiny_context,
                                            tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        env = self._spawned_env(
            campaign, tiny_context.chip, tmp_path, monkeypatch
        )
        assert env["OPENBLAS_NUM_THREADS"] == "3"


class TestFold:
    def _worker_run(self, campaign, chip, dispatcher, worker_id,
                    telemetry=None):
        """One in-process worker writing the exact directory layout a
        subprocess worker would leave behind."""
        workdir = dispatcher.worker_dir(worker_id)
        workdir.mkdir(parents=True, exist_ok=True)
        telemetry = telemetry or Telemetry()
        private = CampaignManifest(workdir / MANIFEST_NAME)
        private.bind_campaign({
            "plan": campaign.fingerprint(), "shard": f"fleet:{worker_id}",
        })
        worker = FleetWorker(
            campaign, chip, dispatcher.manifest,
            worker_id=worker_id,
            cache=ResultCache(cache_dir=workdir / "cache"),
            private_manifest=private,
            batch=2, faults=None, telemetry=telemetry,
        )
        summary = worker.run()
        (workdir / "fleet-telemetry.json").write_text(
            json.dumps(telemetry.merge_payload())
        )
        (workdir / "events.jsonl").write_text(
            json.dumps({
                "event": "fleet.worker.started", "ts": 1.0,
                "worker": worker_id, "pid": 1000, "host": "h",
            }) + "\n"
        )
        return summary

    def test_fold_unions_caches_manifests_and_telemetry(self, campaign,
                                                        tiny_context,
                                                        tmp_path):
        dispatcher = make_dispatcher(campaign, tiny_context.chip, tmp_path)
        plan_fp = campaign.fingerprint()
        dispatcher.campaign_dir.mkdir(parents=True)
        dispatcher.manifest.bind_campaign({"plan": plan_fp, "shard": None})
        first = self._worker_run(
            campaign, tiny_context.chip, dispatcher, "w0"
        )
        second = self._worker_run(
            campaign, tiny_context.chip, dispatcher, "w1"
        )
        # w0 drained the campaign; w1 found it exhausted.
        assert first["completed"] == campaign.total_unique
        assert second["completed"] == 0

        report = dispatcher._fold(plan_fp)
        assert report.runs == campaign.total_unique
        assert report.executed == campaign.total_unique
        assert report.failed == 0
        assert dispatcher.unfinished == []
        assert dispatcher.poisoned == []
        assert report.by_worker["w0"]["completed"] == campaign.total_unique
        summary = report.summary()
        assert summary["by_worker"]["w0"]["completed"] == campaign.total_unique
        assert summary["stolen"] == 0
        # The folded cache holds every run of the campaign.
        folded = ResultCache(cache_dir=dispatcher.campaign_dir / "cache")
        assert all(
            folded.peek_bytes(fp) is not None for fp in campaign.unique
        )
        # The healed shared manifest records everything, plus the fold.
        completed = dispatcher.manifest.completed
        assert {run_point_id(fp) for fp in campaign.unique} <= completed
        assert "shard:fleet" in completed
        # Worker telemetry folded into the dispatcher's counters.
        assert dispatcher.telemetry.counter("fleet.claims") == (
            campaign.total_unique
        )
        # Event logs concatenated, one start line per worker.
        lines = [
            json.loads(line)
            for line in (dispatcher.campaign_dir / "events.jsonl")
            .read_text().splitlines()
        ]
        assert {e["worker"] for e in lines
                if e["event"] == "fleet.worker.started"} == {"w0", "w1"}

    def test_fold_reports_unfinished_and_poisoned(self, campaign,
                                                  tiny_context, tmp_path):
        dispatcher = make_dispatcher(campaign, tiny_context.chip, tmp_path)
        plan_fp = campaign.fingerprint()
        dispatcher.campaign_dir.mkdir(parents=True)
        dispatcher.manifest.bind_campaign({"plan": plan_fp, "shard": None})
        points = [run_point_id(fp) for fp in campaign.unique]
        # Poison one point the hard way: three expired victims.
        now = 1000.0
        for victim in ("a", "b", "c"):
            dispatcher.manifest.claim_batch(
                points[:1], worker=victim, lease_s=1.0, now=now
            )
            now += 10.0
        decision = dispatcher.manifest.claim_batch(
            points[:1], worker="d", poison_after=3, now=now
        )
        assert decision.poisoned == points[:1]
        report = dispatcher._fold(plan_fp)
        assert len(dispatcher.unfinished) == campaign.total_unique
        assert len(dispatcher.poisoned) == 1
        assert report.executed == 0
