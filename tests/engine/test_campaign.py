"""Checkpoint/resume tests: campaign manifest, interrupted sessions,
and the CLI ``run --resume`` flow.

The acceptance property: killing a multi-point campaign midway and
re-invoking with resume recomputes *only* the unfinished points — at
the run level via the disk cache's incremental checkpoints, and at the
experiment level via the campaign manifest.
"""

import json

import pytest

import repro.cli as cli
from repro.engine import CampaignManifest, ResultCache, SimulationSession
from repro.engine.campaign import MANIFEST_NAME
from repro.errors import ExperimentError
from repro.faults import FaultPlan, reset_fault_memo
from repro.machine.runner import RunOptions
from repro.obs import Telemetry

from .conftest import didt


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = CampaignManifest(tmp_path)
        assert manifest.path == tmp_path / MANIFEST_NAME
        assert manifest.completed == set()
        manifest.mark_started("fig7a")
        assert "fig7a" not in manifest.completed
        manifest.mark_complete("fig7a", meta={"runs": 3})
        manifest.mark_started("fig9")
        manifest.mark_failed("fig10", "solver blew up")
        assert manifest.completed == {"fig7a"}
        payload = manifest.load()
        assert payload["points"]["fig7a"]["meta"] == {"runs": 3}
        assert payload["points"]["fig10"]["status"] == "failed"
        assert payload["points"]["fig10"]["reason"] == "solver blew up"

    def test_file_is_always_valid_json(self, tmp_path):
        manifest = CampaignManifest(tmp_path / "m.json")
        manifest.mark_complete("a")
        manifest.mark_complete("b")
        payload = json.loads((tmp_path / "m.json").read_text())
        assert set(payload["points"]) == {"a", "b"}

    def test_torn_manifest_never_wedges_a_resume(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"version": 1, "poi')  # torn write
        manifest = CampaignManifest(path)
        assert manifest.completed == set()
        manifest.mark_complete("a")  # recovers by republishing
        assert CampaignManifest(path).completed == {"a"}

    def test_non_dict_payload_is_ignored(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2, 3]")
        assert CampaignManifest(path).completed == set()


@pytest.fixture(autouse=True)
def _fresh_memo():
    reset_fault_memo()
    yield
    reset_fault_memo()


class TestInterruptedSession:
    def test_resume_recomputes_only_unfinished_runs(self, chip, tmp_path):
        """Kill a 5-point sweep after 2 checkpointed runs; the resumed
        sweep must replay those 2 from disk and execute only the other
        3 (the run-level half of the resume acceptance criterion)."""
        options = RunOptions(segments=2, base_samples=1024)
        mappings = [
            [didt(i_high=20.0 + i)] + [None] * 5 for i in range(5)
        ]
        tags = [f"p{i}" for i in range(5)]

        first_telemetry = Telemetry()
        interrupted = SimulationSession(
            chip,
            options,
            cache=ResultCache(
                cache_dir=tmp_path, telemetry=first_telemetry
            ),
            jobs=1,
            faults=FaultPlan(seed=5, abort_after=3),
            telemetry=first_telemetry,
        )
        with pytest.raises(KeyboardInterrupt):
            interrupted.run_many(mappings, tags)
        # Runs 1 and 2 were flushed as they completed; run 3 died
        # mid-flight (after compute, before checkpoint) and is lost.
        assert first_telemetry.counter("engine.cache.disk_writes") == 2

        reset_fault_memo()
        resumed_telemetry = Telemetry()
        resumed = SimulationSession(
            chip,
            options,
            cache=ResultCache(
                cache_dir=tmp_path, telemetry=resumed_telemetry
            ),
            jobs=1,
            faults=None,
            telemetry=resumed_telemetry,
        )
        results = resumed.run_many(mappings, tags)
        assert len(results) == 5
        assert all(result is not None for result in results)
        assert resumed_telemetry.counter("engine.cache.disk_hits") == 2
        assert resumed_telemetry.counter("engine.runs_executed") == 3


class TestCliResume:
    def test_resume_without_a_location_is_an_error(self, capsys):
        assert cli.main(["run", "fig7b", "--resume"]) == 2
        assert "--resume needs" in capsys.readouterr().err

    def test_resume_skips_finished_experiments(self, tmp_path, capsys):
        out = str(tmp_path / "artifacts")
        assert cli.main(["--quick", "run", "fig7b", "--output", out]) == 0
        manifest = CampaignManifest(tmp_path / "artifacts")
        assert manifest.completed == {"fig7b"}
        capsys.readouterr()

        assert (
            cli.main(
                ["--quick", "run", "fig7b", "--resume", "--output", out]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "resume: skipping 1 finished experiment(s): fig7b" in (
            captured.out
        )
        # Nothing re-ran: the skipped campaign printed no result body.
        assert "resonant bands" not in captured.out

    def test_resume_keeps_skipped_experiments_in_the_index(
        self, tmp_path, capsys
    ):
        out = tmp_path / "artifacts"
        assert cli.main(["--quick", "run", "fig7b", "--output", str(out)]) == 0
        first = json.loads((out / "index.json").read_text())
        assert (
            cli.main([
                "--quick", "run", "fig7b", "fig13b", "--resume",
                "--output", str(out),
            ])
            == 0
        )
        assert "skipping 1 finished experiment(s): fig7b" in (
            capsys.readouterr().out
        )
        index = json.loads((out / "index.json").read_text())
        assert set(index) == {"fig7b", "fig13b"}
        assert index["fig7b"] == first["fig7b"]
        exported = json.loads((out / "fig13b.json").read_text())
        assert index["fig13b"] == exported["title"]

    def test_failed_point_is_recorded_and_telemetry_flushed(
        self, tmp_path, monkeypatch, capsys
    ):
        def failing_driver(experiment_id):
            def driver(context):
                raise ExperimentError("injected driver failure")

            return driver

        monkeypatch.setattr(cli, "get_experiment", failing_driver)
        out = tmp_path / "artifacts"
        status = cli.main(["--quick", "run", "fig7b", "--output", str(out)])
        captured = capsys.readouterr()
        assert status == 1
        assert "injected driver failure" in captured.err
        # Satellite guarantee: a campaign that fails partway still
        # leaves a telemetry snapshot in the output directory.
        assert (out / "telemetry.json").exists()
        payload = CampaignManifest(out).load()
        assert payload["points"]["fig7b"]["status"] == "failed"
        assert CampaignManifest(out).completed == set()
