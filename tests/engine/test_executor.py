"""Executor backend tests: selection by job count, chunking, guarded
mapping and pool degradation."""

import os

import pytest

from repro.engine.executor import (
    ProcessExecutor,
    SerialExecutor,
    chunked,
    make_executor,
    resolve_jobs,
)
from repro.engine.resilience import RetryPolicy
from repro.errors import ConfigError
from repro.obs import get_telemetry


def square(x):
    return x * x


def fail_on_two(x):
    if x == 2:
        raise ValueError("point 2 is cursed")
    return x * x


class _CrashInWorker:
    """Kills the hosting process (``os._exit``) when executed outside
    the process it was constructed in — a real dead worker, without
    ever endangering the test runner itself."""

    def __init__(self):
        self.main_pid = os.getpid()

    def __call__(self, x):
        if os.getpid() != self.main_pid:
            os._exit(3)
        return x * x


class _ExplodesOnUnpickle:
    """A task that fails during worker-side setup: unpickling it (the
    first thing a pool worker does with a submitted chunk) raises."""

    def __getstate__(self):
        return {}

    def __setstate__(self, state):
        raise RuntimeError("worker setup failed")

    def __call__(self, x):
        return x + 1


class TestChunking:
    def test_even_split(self):
        assert chunked([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_uneven_split_front_loads(self):
        assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]

    def test_more_chunks_than_items(self):
        assert chunked([1, 2], 5) == [[1], [2]]

    def test_empty_input(self):
        assert chunked([], 3) == []

    def test_guard(self):
        with pytest.raises(ConfigError):
            chunked([1], 0)


class TestJobResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_machine_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    @pytest.mark.parametrize("bad", ["0", "-2", "two"])
    def test_bad_env_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ConfigError):
            resolve_jobs()

    def test_bad_argument_rejected(self):
        with pytest.raises(ConfigError):
            resolve_jobs(0)


class TestSelection:
    """The job count is the only knob: one job is serial, more is a
    process pool."""

    def test_serial_is_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert isinstance(make_executor(), SerialExecutor)

    def test_env_selects_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        executor = make_executor()
        assert isinstance(executor, ProcessExecutor)
        assert executor.jobs == 2

    def test_explicit_jobs_win_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert isinstance(make_executor(1), SerialExecutor)
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert make_executor(3).jobs == 3

    def test_bad_job_counts_rejected(self, monkeypatch):
        with pytest.raises(ConfigError):
            make_executor(0)
        monkeypatch.setenv("REPRO_JOBS", "gpu")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            make_executor()


class TestEnvEdgeCases:
    def test_whitespace_jobs_env_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "   ")
        assert resolve_jobs() == 1

    def test_padded_jobs_env_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", " 4 ")
        assert resolve_jobs() == 4

    def test_whitespace_executor_env_means_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "   ")
        assert isinstance(make_executor(), SerialExecutor)


NO_RETRY = RetryPolicy(max_retries=0, backoff_base_s=0.0)


class TestGuardedMapping:
    def test_serial_empty(self):
        assert SerialExecutor().map_guarded(square, [], NO_RETRY) == []

    def test_process_empty(self):
        executor = ProcessExecutor(jobs=2)
        assert executor.map_guarded(square, [], NO_RETRY) == []

    def test_one_bad_item_does_not_kill_the_batch(self):
        outcomes = SerialExecutor().map_guarded(
            fail_on_two, [1, 2, 3], NO_RETRY, labels=["a", "b", "c"]
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[0].value == 1
        assert outcomes[2].value == 9
        failure = outcomes[1].failure
        assert failure.label == "b"
        assert failure.error_type == "ValueError"

    def test_process_matches_serial(self):
        items = list(range(9))
        serial = SerialExecutor().map_guarded(fail_on_two, items, NO_RETRY)
        pooled = ProcessExecutor(jobs=2).map_guarded(
            fail_on_two, items, NO_RETRY
        )
        assert [o.value for o in pooled] == [o.value for o in serial]
        assert [o.ok for o in pooled] == [o.ok for o in serial]

    def test_on_result_fires_per_item_in_order(self):
        seen = []
        SerialExecutor().map_guarded(
            square,
            [5, 6],
            NO_RETRY,
            on_result=lambda index, outcome: seen.append(
                (index, outcome.value)
            ),
        )
        assert seen == [(0, 25), (1, 36)]

    def test_metadata_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            SerialExecutor().map_guarded(
                square, [1, 2], NO_RETRY, labels=["only-one"]
            )


class TestPoolDegradation:
    def test_map_survives_dead_workers(self):
        # Every worker dies on first use; the parent must notice the
        # broken pool and finish the batch serially itself.
        telemetry = get_telemetry()
        before = telemetry.counter("engine.pool.degraded_to_serial")
        outcomes = ProcessExecutor(jobs=2).map_guarded(
            _CrashInWorker(), list(range(6)), NO_RETRY
        )
        assert [o.value for o in outcomes] == [i * i for i in range(6)]
        assert telemetry.counter("engine.pool.degraded_to_serial") > before

    def test_map_guarded_survives_dead_workers(self):
        telemetry = get_telemetry()
        before = telemetry.counter("engine.pool.chunk_failures")
        outcomes = ProcessExecutor(jobs=2).map_guarded(
            _CrashInWorker(), list(range(6)), NO_RETRY
        )
        assert [o.value for o in outcomes] == [i * i for i in range(6)]
        assert all(o.ok for o in outcomes)
        assert telemetry.counter("engine.pool.chunk_failures") > before

    def test_map_guarded_survives_worker_setup_failure(self):
        # The task cannot even be unpickled worker-side; degradation
        # re-runs it in the parent, where no pickling is involved.
        outcomes = ProcessExecutor(jobs=2).map_guarded(
            _ExplodesOnUnpickle(), [1, 2, 3, 4], NO_RETRY
        )
        assert [o.value for o in outcomes] == [2, 3, 4, 5]
        assert all(o.ok for o in outcomes)
