"""End-to-end fleet fold: two workers drain one campaign into their own
cache directories and manifests, the dispatcher's fold unions them, and
a replay over the folded cache executes nothing and exports artifacts
byte-identical to a serial campaign's."""

from __future__ import annotations

import pytest

from repro.engine import CampaignManifest, ResultCache, SimulationSession
from repro.engine.campaign import MANIFEST_NAME
from repro.experiments import compile_campaign
from repro.experiments.common import ExperimentContext
from repro.experiments.exporter import export_results
from repro.experiments.registry import get_experiment
from repro.fleet import FleetDispatcher, FleetWorker
from repro.machine.runner import RunOptions
from repro.obs import EventLog, Telemetry, validate_event_log
from repro.plan import run_point_id

FIGURES = ["fig7a", "fig9"]


def _tiny_context(generator, chip) -> ExperimentContext:
    return ExperimentContext(
        generator=generator,
        chip=chip,
        options=RunOptions(segments=2, base_samples=1024),
        freq_points_per_decade=1,
        delta_i_placements=1,
        misalignment_assignments=1,
    )


class _QuotaWorker(FleetWorker):
    """Drains itself after ``quota`` completions, releasing the rest of
    its claims so the next worker finishes the campaign."""

    def __init__(self, *args, quota: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.quota = quota

    def _execute(self, point: str) -> None:
        super()._execute(point)
        if self.summary["completed"] >= self.quota:
            self.drain()


def _run_worker(campaign, chip, dispatcher, worker_id, quota):
    """One in-process worker leaving the directory layout a subprocess
    worker would: private cache, private manifest, event log."""
    workdir = dispatcher.worker_dir(worker_id)
    workdir.mkdir(parents=True)
    private = CampaignManifest(workdir / MANIFEST_NAME)
    private.bind_campaign({
        "plan": campaign.fingerprint(), "shard": f"fleet:{worker_id}",
    })
    telemetry = Telemetry()
    log = EventLog(workdir / "events.jsonl")
    telemetry.enable_tracing(events=log)
    try:
        return _QuotaWorker(
            campaign, chip, dispatcher.manifest,
            quota=quota,
            worker_id=worker_id,
            cache=ResultCache(cache_dir=workdir / "cache", telemetry=telemetry),
            private_manifest=private,
            batch=2, faults=None, telemetry=telemetry,
        ).run()
    finally:
        log.close()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fleet-fold")


@pytest.fixture(scope="module")
def context(generator, chip):
    return _tiny_context(generator, chip)


@pytest.fixture(scope="module")
def campaign(context):
    return compile_campaign(FIGURES, context)


@pytest.fixture(scope="module")
def fleet(campaign, context, workdir):
    """Two workers drain the campaign (the first hands over halfway),
    then the dispatcher folds their output."""
    dispatcher = FleetDispatcher(
        campaign, context.chip, workdir / "fleet", ["unused"],
        telemetry=Telemetry(),
    )
    plan_fp = campaign.fingerprint()
    dispatcher.campaign_dir.mkdir(parents=True)
    dispatcher.manifest.bind_campaign({"plan": plan_fp, "shard": None})
    total = campaign.total_unique
    summaries = [
        _run_worker(campaign, context.chip, dispatcher, "w0", total // 2),
        _run_worker(campaign, context.chip, dispatcher, "w1", total),
    ]
    return dispatcher, summaries, dispatcher._fold(plan_fp)


class TestFleetDrain:
    def test_both_workers_share_the_campaign(self, campaign, fleet):
        _, (first, second), _ = fleet
        assert first["completed"] == campaign.total_unique // 2
        assert second["completed"] == (
            campaign.total_unique - first["completed"]
        )
        assert first["failed"] == second["failed"] == 0

    def test_fold_reports_every_run_executed(self, campaign, fleet):
        dispatcher, _, report = fleet
        assert report.runs == campaign.total_unique
        assert report.executed == campaign.total_unique
        assert report.failed == 0
        assert dispatcher.unfinished == []

    def test_folded_manifest_has_every_run_point(self, campaign, fleet):
        dispatcher, _, _ = fleet
        completed = dispatcher.manifest.completed
        assert {run_point_id(fp) for fp in campaign.unique} <= completed
        assert "shard:fleet" in completed
        assert dispatcher.manifest.campaign == {
            "plan": campaign.fingerprint(), "shard": None,
        }

    def test_folded_event_log_validates(self, fleet):
        dispatcher, _, _ = fleet
        n_valid, errors = validate_event_log(
            dispatcher.campaign_dir / "events.jsonl"
        )
        assert n_valid > 0
        assert errors == []


class TestFoldedEqualsSerial:
    def test_folded_cache_replays_the_whole_campaign(
        self, campaign, context, fleet
    ):
        """Re-executing the plan's runs over the folded cache touches
        the solver zero times."""
        dispatcher, _, _ = fleet
        telemetry = Telemetry()
        session = SimulationSession(
            context.chip,
            context.options,
            cache=ResultCache(
                cache_dir=dispatcher.campaign_dir / "cache",
                telemetry=telemetry,
            ),
            jobs=1,
            telemetry=telemetry,
        )
        entries = list(campaign.unique.values())
        assert all(entry.run.options == context.options for entry in entries)
        session.run_many(
            [list(entry.run.mapping) for entry in entries],
            [entry.run.tag for entry in entries],
        )
        assert telemetry.counter("engine.cache.hits") == campaign.total_unique
        assert telemetry.counter("engine.runs_executed") == 0

    def test_exports_bit_identical(self, generator, chip, fleet, workdir):
        """Figure artifacts exported from the folded fleet cache are
        byte for byte what a serial campaign exports."""
        dispatcher, _, _ = fleet
        export_dirs = []
        for name, cache_dir in (
            ("from-fleet", dispatcher.campaign_dir / "cache"),
            ("from-scratch", workdir / "scratch-cache"),
        ):
            context = _tiny_context(generator, chip)
            telemetry = Telemetry()
            context._session = SimulationSession(
                context.chip, context.options,
                cache=ResultCache(cache_dir=cache_dir, telemetry=telemetry),
                jobs=1, telemetry=telemetry,
            )
            results = [get_experiment(figure)(context) for figure in FIGURES]
            out = workdir / name
            export_results(results, out, telemetry)
            export_dirs.append(out)
            if name == "from-fleet":
                assert telemetry.counter("engine.runs_executed") == 0
        fleet_out, scratch_out = export_dirs
        for figure in FIGURES:
            for suffix in (".json", ".txt"):
                a = (fleet_out / f"{figure}{suffix}").read_bytes()
                b = (scratch_out / f"{figure}{suffix}").read_bytes()
                assert a == b, f"{figure}{suffix} differs across paths"
