"""Partial (collect-mode) sweeps: failed points are dropped, counted
and traced instead of aborting the whole campaign; a study that needs
every run fails with a named error instead."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.sensitivity import (
    sweep_delta_i_mappings,
    sweep_misalignment,
    sweep_stimulus_frequency,
)
from repro.cli import main
from repro.engine import ResultCache, SimulationSession
from repro.engine import cache as cache_module
from repro.engine.resilience import RetryPolicy
from repro.errors import ExecutionError
from repro.experiments import ExperimentContext, get_experiment
from repro.faults import FaultPlan
from repro.faults.harness import reset_fault_memo
from repro.machine.runner import RunOptions
from repro.machine.tod import TOD_STEP
from repro.obs import EventLog, Telemetry, read_events

#: Permanent failures (transient=False): retry cannot absorb them, so
#: collect-mode must drop the points.
PERMANENT_FAULTS = FaultPlan(seed=5, exception_rate=0.4, transient=False)
NO_RETRY = RetryPolicy(max_retries=0, backoff_base_s=0.0)


def collect_session(chip, telemetry, events=None, faults=PERMANENT_FAULTS):
    reset_fault_memo()
    if events is not None:
        telemetry.enable_tracing(events=events)
    return SimulationSession(
        chip,
        RunOptions(segments=2, base_samples=1024),
        cache=ResultCache(telemetry=telemetry),
        jobs=1,
        retry=NO_RETRY,
        on_failure="collect",
        faults=faults,
        telemetry=telemetry,
    )


class TestCollectModeFrequencySweep:
    def test_failed_points_dropped_counted_and_traced(
        self, generator, chip, tmp_path
    ):
        telemetry = Telemetry()
        frequencies = [1e6, 2e6, 2.6e6, 4e6, 8e6]
        with EventLog(tmp_path / "events.jsonl") as log:
            session = collect_session(chip, telemetry, events=log)
            points = sweep_stimulus_frequency(
                generator, chip, frequencies, synchronize=True,
                n_events=200,
            ).run(session)
        dropped = telemetry.counter("engine.points_dropped")
        assert dropped > 0, "fault plan never fired; adjust seed/rate"
        assert len(points) == len(frequencies) - dropped
        # The partial shmoo keeps the frequencies that solved, aligned.
        solved = {p.freq_hz for p in points}
        assert solved < set(frequencies)
        events = read_events(tmp_path / "events.jsonl")
        drops = [e for e in events if e["event"] == "point.dropped"]
        assert len(drops) == dropped
        assert all(e["sweep"] == "fsweep" for e in drops)
        assert all("InjectedFault" in e["error"] for e in drops)
        failures = [e for e in events if e["event"] == "run.failed"]
        assert len(failures) == dropped

    def test_raise_mode_still_aborts(self, generator, chip):
        reset_fault_memo()
        telemetry = Telemetry()
        session = SimulationSession(
            chip,
            RunOptions(segments=2, base_samples=1024),
            cache=ResultCache(telemetry=telemetry),
            jobs=1,
            retry=NO_RETRY,
            on_failure="raise",
            faults=PERMANENT_FAULTS,
            telemetry=telemetry,
        )
        with pytest.raises(ExecutionError):
            sweep_stimulus_frequency(
                generator, chip, [1e6, 2e6, 2.6e6, 4e6, 8e6],
                synchronize=True, n_events=200,
            ).run(session)


class TestCollectModeDeltaISweep:
    def test_partial_dataset_renumbers_contiguously(self, generator, chip):
        telemetry = Telemetry()
        session = collect_session(chip, telemetry)
        points = sweep_delta_i_mappings(
            generator, chip,
            placements_per_distribution=1,
            workload_filter=lambda dist: dist[1] == 0,  # max-only column
        ).run(session)
        assert telemetry.counter("engine.points_dropped") > 0
        assert points, "every point failed; adjust seed/rate"
        # mapping_ids stay contiguous over the surviving points.
        assert [p.mapping_id for p in points] == list(range(len(points)))


class TestCollectModeMisalignmentSweep:
    def test_a_level_without_a_solved_assignment_fails_by_name(
        self, generator, chip
    ):
        telemetry = Telemetry()
        session = collect_session(
            chip,
            telemetry,
            faults=FaultPlan(seed=11, exception_rate=0.5, transient=False),
        )
        with pytest.raises(ExecutionError) as excinfo:
            sweep_misalignment(
                generator, chip, [0.0, TOD_STEP, 2 * TOD_STEP],
                assignments_sample=2,
            ).run(session)
        assert (
            "1 of 5 run(s) failed and sweep 'missweep' cannot yield its "
            "value (misalignment 0.0 ns lost every assignment)"
        ) in str(excinfo.value)
        assert len(excinfo.value.failures) == 1


class TestCollectModeWholeStudies:
    """Only the named sweeps can drop points.  Under collect mode a
    study that needs every run raises an ExecutionError naming the
    failed runs, which the CLI reports per experiment."""

    def test_study_without_drops_raises_named_error(self, generator, chip):
        telemetry = Telemetry()
        session = collect_session(
            chip,
            telemetry,
            faults=FaultPlan(seed=5, exception_rate=1.0, transient=False),
        )
        context = ExperimentContext(
            generator=generator,
            chip=chip,
            options=session.options,
            on_failure="collect",
            _session=session,
        )
        with pytest.raises(ExecutionError) as excinfo:
            get_experiment("fig14")(context)
        message = str(excinfo.value)
        assert "2 of 2 run(s) failed" in message
        assert "('fig14', (1, 4, 5))" in message
        assert len(excinfo.value.failures) == 2
        assert telemetry.counter("engine.points_dropped") == 0

    def test_cli_reports_the_study_and_runs_the_rest(self, tmp_path):
        src = Path(__file__).resolve().parents[2] / "src"
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env.update(
            PYTHONPATH=str(src),
            REPRO_FAULTS="exception=0.6,seed=4,permanent",
        )
        out = tmp_path / "out"
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "--quick",
                "--cache-dir", str(tmp_path / "cache"),
                "--on-failure", "collect",
                "run", "fig14", "fig7a", "--output", str(out),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 1, done.stderr
        assert "error in fig14: " in done.stderr
        assert "Traceback" not in done.stderr
        assert json.loads((out / "index.json").read_text()) == {
            "fig7a": "Noise vs. stimulus frequency (unsync)"
        }
        fig7a = json.loads((out / "fig7a.json").read_text())["data"]
        assert fig7a["dropped_points"] > 0
        manifest = json.loads((out / "campaign-manifest.json").read_text())
        statuses = {
            point: entry["status"]
            for point, entry in manifest["points"].items()
        }
        assert statuses == {"fig14": "failed", "fig7a": "complete"}


@pytest.fixture()
def run_collect(monkeypatch, tmp_path, capsys):
    """``main()`` for a quick collect-mode campaign under a permanent
    fault plan, in this process, on a fresh process-wide result cache
    (so every run executes); returns ``(status, stderr, output dir)``.
    The environment the CLI exports is restored afterwards."""

    def run(faults: str, *experiments: str):
        reset_fault_memo()
        monkeypatch.setattr(cache_module, "_GLOBAL", ResultCache())
        for name, value in {
            "REPRO_FAULTS": faults,
            "REPRO_JOBS": "1",
            "REPRO_MAX_RETRIES": "0",
            "REPRO_ON_FAILURE": "collect",
        }.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "out"
        status = main(
            ["--quick", "--on-failure", "collect", "run", *experiments,
             "--output", str(out)]
        )
        return status, capsys.readouterr().err, out

    return run


class TestSweepsThatCannotYield:
    """A named sweep left without what its figure needs fails by name;
    the campaign records it and runs the rest."""

    def test_each_fails_by_name_and_the_campaign_goes_on(self, run_collect):
        status, err, out = run_collect(
            "exception=1.0,seed=4,permanent", "fig7a", "fig9", "fig10",
            "fig7b",
        )
        assert status == 1
        errors = {
            line.split(":", 1)[0]: line
            for line in err.splitlines()
            if line.startswith("error in ")
        }
        for experiment_id, sweep, reason in [
            ("fig7a", "fsweep", "no frequency solved"),
            ("fig9", "fsweep", "no frequency solved"),
            ("fig10", "missweep", "misalignment 0.0 ns lost every assignment"),
        ]:
            line = errors[f"error in {experiment_id}"]
            assert f"sweep {sweep!r} cannot yield its value ({reason})" in line
            assert "InjectedFault" in line
        assert json.loads((out / "index.json").read_text()) == {
            "fig7b": "Impedance profile Z(f)"
        }
        manifest = json.loads((out / "campaign-manifest.json").read_text())
        assert {
            point: entry["status"]
            for point, entry in manifest["points"].items()
        } == {
            "fig7a": "failed",
            "fig9": "failed",
            "fig10": "failed",
            "fig7b": "complete",
        }

    def test_fig9_pairs_its_uplift_by_frequency(self, run_collect):
        status, _, out = run_collect("exception=0.3,seed=4,permanent", "fig9")
        assert status == 0
        data = json.loads((out / "fig9.json").read_text())["data"]
        synced = [(f, max(p2p)) for f, p2p in data["points_sync"]]
        unsynced = dict((f, max(p2p)) for f, p2p in data["points_unsync"])
        # The plan drops different points from the two sweeps, so a
        # positional pairing would mix frequencies.
        assert [f for f, _ in synced] != list(unsynced)
        terms = [s - unsynced[f] for f, s in synced if f in unsynced]
        assert terms
        assert data["mean_uplift"] == sum(terms) / len(terms)
