"""Registry and CLI plumbing tests (no heavy experiment execution)."""

import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.errors import ExperimentError
from repro.experiments.registry import (
    ExperimentResult,
    all_experiments,
    get_experiment,
)

SRC = Path(__file__).resolve().parents[2] / "src"

EXPECTED_IDS = {
    "table1", "fig7a", "fig7b", "fig8", "fig9", "fig10",
    "fig11a", "fig11b", "fig12", "fig13a", "fig13b", "fig14", "fig15",
    "ctrl-gain", "ctrl-attack",
}


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        assert set(all_experiments()) == EXPECTED_IDS

    def test_titles_are_nonempty(self):
        for title in all_experiments().values():
            assert title

    def test_get_experiment_returns_callable(self):
        driver = get_experiment("fig7b")
        assert callable(driver)

    def test_unknown_id_raises_with_suggestions(self):
        with pytest.raises(ExperimentError, match="known:"):
            get_experiment("fig99")

    def test_result_str_includes_id(self):
        result = ExperimentResult("x1", "title", "body")
        assert "x1" in str(result)
        assert "body" in str(result)


class TestCli:
    def test_parser_accepts_quick_flag(self):
        args = build_parser().parse_args(["--quick", "run", "fig7b"])
        assert args.quick
        assert args.experiments == ["fig7b"]

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPECTED_IDS:
            assert experiment_id in out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_cheap_experiment(self, capsys):
        assert main(["--quick", "run", "fig7b"]) == 0
        out = capsys.readouterr().out
        assert "resonant bands" in out


class TestJobCount:
    """``--jobs`` / ``$REPRO_JOBS`` is the one executor knob: resolved
    and validated once, before anything runs, on every command path."""

    @staticmethod
    def _single_error(capsys) -> str:
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error:")
        return err[0]

    def test_zero_jobs_exits_2(self, capsys):
        assert main(["--quick", "--jobs", "0", "run", "table1"]) == 2
        assert "jobs" in self._single_error(capsys)

    def test_jobs_env_alone_selects_the_pool(self, monkeypatch, capsys):
        from repro import cli
        from repro.engine import ProcessExecutor

        monkeypatch.setenv("REPRO_JOBS", "2")
        executors = []

        def driver(context):
            executors.append(context.session.executor)
            return "ok"

        monkeypatch.setattr(cli, "get_experiment", lambda _: driver)
        assert main(["--quick", "run", "table1"]) == 0
        (executor,) = executors
        assert isinstance(executor, ProcessExecutor)
        assert executor.jobs == 2

    def test_bad_jobs_env_fails_plan_cleanly(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "two")
        assert main(["--quick", "plan", "fig7a"]) == 2
        assert "REPRO_JOBS" in self._single_error(capsys)


class TestMetricsPlaneCli:
    def test_parser_accepts_new_observability_flags(self):
        parser = build_parser()
        args = parser.parse_args([
            "serve", "--http-metrics", "0", "--metrics-window", "2.5",
            "--slo", "slo.json",
        ])
        assert args.http_metrics == 0
        assert args.metrics_window == 2.5
        assert args.slo == "slo.json"
        args = parser.parse_args([
            "top", "--campaign", "dir", "--serve", ":4650", "--once",
        ])
        assert args.campaign == "dir"
        assert args.once
        args = parser.parse_args(["plan", "fig7a", "--workers", "8"])
        assert args.workers == 8
        args = parser.parse_args(["query", "--metrics-text"])
        assert args.metrics_text

    def test_top_needs_a_target(self, capsys):
        assert main(["top", "--once"]) == 2
        assert "--campaign and/or --serve" in capsys.readouterr().err

    def test_top_once_renders_live_status(self, tmp_path, capsys):
        import json

        status = {
            "ts": 0.0, "tick": 3, "phase": "folded", "total_runs": 6,
            "counts": {"complete": 6, "failed": 0, "claimed": 0,
                       "poisoned": 0},
            "leases": {"live": 0, "by_worker": {}},
            "observed_steals": 1, "completion_rate": None,
            "workers": {}, "transitions": [],
        }
        (tmp_path / "live-status.json").write_text(json.dumps(status))
        assert main(["top", "--campaign", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "phase=folded" in out
        assert "6/6" in out
        assert "steals observed=1" in out

    def test_plan_workers_autodetected_from_live_status(
        self, tmp_path, capsys
    ):
        """`plan --since <fleet dir>` scales the ETA by the campaign's
        live (non-draining) worker census."""
        import json

        from repro.engine import CampaignManifest

        CampaignManifest(tmp_path).mark_complete("run:x")
        (tmp_path / "live-status.json").write_text(json.dumps({
            "phase": "running",
            "workers": {
                "w0": {"state": "executing"},
                "w1": {"state": "idle"},
                "w2": {"state": "stopped"},
            },
        }))
        baseline = tmp_path / "telemetry.json"
        baseline.write_text(json.dumps({
            "histograms": {"engine.run.seconds": {"count": 4, "mean": 2.0}}
        }))
        assert main([
            "--quick", "plan", "fig7b", "--since", str(tmp_path),
            "--telemetry", str(baseline),
        ]) == 0
        out = capsys.readouterr().out
        assert "x 2 worker(s) [live fleet]" in out


class ClosedStdout:
    """A stdout whose reader has gone away: every write and flush
    raises, as a pipe's does once ``head`` has exited."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


CLOSED_STDOUT_ARGV = [["--quick", "list"], ["--quick", "plan", "fig7b"]]


class TestClosedStdout:
    @pytest.mark.parametrize("argv", CLOSED_STDOUT_ARGV)
    def test_in_process_main_returns_non_zero(
        self, capsys, monkeypatch, argv
    ):
        monkeypatch.setattr(sys, "stdout", ClosedStdout())
        assert main(argv) == 1
        devnull = sys.stdout
        assert devnull.name == os.devnull
        devnull.close()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", CLOSED_STDOUT_ARGV)
    def test_closed_pipe_exits_without_a_traceback(self, argv):
        """A real pipe whose read end is closed before the CLI writes:
        exit status 1 and nothing on stderr, neither a traceback nor
        the interpreter's exit-flush complaint.  Stdout is left
        buffered, so the short output first meets the closed pipe when
        it is flushed."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_") and key != "PYTHONUNBUFFERED"
        }
        env["PYTHONPATH"] = str(SRC)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == b""
