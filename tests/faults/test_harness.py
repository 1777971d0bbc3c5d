"""Fault harness tests: injection behavior on real executors, cache
corruption, and recovery through the resilience layer."""

import pytest

from repro.engine.cache import ResultCache
from repro.engine.executor import ProcessExecutor, SerialExecutor
from repro.engine.resilience import RetryPolicy
from repro.faults import (
    FaultPlan,
    FaultyExecutor,
    InjectedCrash,
    corrupt_cache_entries,
    reset_fault_memo,
)
from repro.faults.harness import fault_key
from repro.obs import Telemetry, get_telemetry


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Transient faults fire once per (seed, key) per process; forget
    past tests' firings so every test starts from a clean schedule."""
    reset_fault_memo()
    yield
    reset_fault_memo()


def identity(x):
    return x


class _CountingFn:
    """Records how many times it was invoked (per process)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return x


FAST_RETRY = RetryPolicy(max_retries=2, backoff_base_s=0.0)


class TestFaultKey:
    def test_tuple_with_fingerprint_head_uses_it(self):
        assert fault_key(("deadbeef", [1, 2], "tag")) == "deadbeef"

    def test_other_items_get_canonical_keys(self):
        assert fault_key(3) == fault_key(3)
        assert fault_key(3) != fault_key(4)


class TestSerialInjection:
    def test_transient_exception_is_absorbed_by_retry(self):
        executor = FaultyExecutor(
            SerialExecutor(), FaultPlan(seed=1, exception_rate=1.0)
        )
        outcomes = executor.map_guarded(identity, [10, 20, 30], FAST_RETRY)
        assert [o.value for o in outcomes] == [10, 20, 30]
        assert all(o.attempts == 2 for o in outcomes)

    def test_permanent_exception_surfaces_as_failure(self):
        executor = FaultyExecutor(
            SerialExecutor(),
            FaultPlan(seed=1, exception_rate=1.0, transient=False),
        )
        outcomes = executor.map_guarded(identity, [10, 20], FAST_RETRY)
        assert all(not o.ok for o in outcomes)
        assert all(o.failure.error_type == "InjectedFault" for o in outcomes)
        assert all(o.attempts == FAST_RETRY.max_retries + 1 for o in outcomes)

    def test_crash_in_main_process_raises_not_exits(self):
        # A crash fault must never genuinely kill the main process: in
        # the parent it raises InjectedCrash, which the guard records.
        executor = FaultyExecutor(
            SerialExecutor(), FaultPlan(seed=1, crash_rate=1.0, transient=False)
        )
        (outcome,) = executor.map_guarded(identity, [1], FAST_RETRY)
        assert not outcome.ok
        assert outcome.failure.error_type == InjectedCrash.__name__

    def test_hang_is_caught_by_watchdog_then_retried(self):
        executor = FaultyExecutor(
            SerialExecutor(),
            FaultPlan(seed=1, hang_rate=1.0, hang_seconds=0.5),
        )
        retry = RetryPolicy(
            max_retries=1, backoff_base_s=0.0, run_timeout_s=0.05
        )
        outcomes = executor.map_guarded(identity, [7], retry)
        assert outcomes[0].ok
        assert outcomes[0].value == 7
        assert outcomes[0].timeouts == 1
        assert outcomes[0].attempts == 2

    def test_abort_after_simulates_host_interruption(self):
        counting = _CountingFn()
        executor = FaultyExecutor(
            SerialExecutor(), FaultPlan(seed=1, abort_after=2)
        )
        with pytest.raises(KeyboardInterrupt):
            executor.map_guarded(counting, [1, 2, 3, 4], FAST_RETRY)
        assert counting.calls == 2  # the interrupt landed on call #2

    def test_inactive_plan_is_transparent(self):
        executor = FaultyExecutor(SerialExecutor(), FaultPlan(seed=1))
        outcomes = executor.map_guarded(identity, [1, 2], FAST_RETRY)
        assert [o.value for o in outcomes] == [1, 2]
        assert all(o.attempts == 1 for o in outcomes)
        assert executor.name == "faulty+serial"
        assert executor.jobs == 1


class TestProcessInjection:
    def test_worker_crashes_degrade_and_recover(self):
        # Every run crashes its worker once: the pool breaks for real
        # (os._exit in the child), the parent re-runs chunks serially,
        # the in-parent crash becomes InjectedCrash, and the retry
        # absorbs it -- the batch still completes with correct values.
        executor = FaultyExecutor(
            ProcessExecutor(jobs=2), FaultPlan(seed=2, crash_rate=1.0)
        )
        telemetry = get_telemetry()
        degraded_before = telemetry.counter("engine.pool.degraded_to_serial")
        outcomes = executor.map_guarded(identity, list(range(6)), FAST_RETRY)
        assert [o.value for o in outcomes] == list(range(6))
        assert (
            telemetry.counter("engine.pool.degraded_to_serial")
            > degraded_before
        )


class TestCacheCorruption:
    def test_victims_are_deterministic_and_torn(self, tmp_path):
        telemetry = Telemetry()
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        keys = ["aaaa", "bbbb", "cccc", "dddd"]
        for key in keys:
            cache.put(key, {"key": key})
        plan = FaultPlan(seed=6, corrupt_entries=2)

        victims = corrupt_cache_entries(tmp_path, plan)
        assert len(victims) == 2
        assert victims == corrupt_cache_entries(tmp_path, plan)  # stable

        fresh = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        torn = {path.stem for path in victims}
        for key in keys:
            if key in torn:
                assert fresh.get(key) is None  # quarantined -> miss
            else:
                assert fresh.get(key) == {"key": key}
        assert telemetry.counter("engine.cache.quarantined") == 2

    def test_count_defaults_to_plan_and_quarantine_is_excluded(self, tmp_path):
        telemetry = Telemetry()
        cache = ResultCache(cache_dir=tmp_path, telemetry=telemetry)
        cache.put("aaaa", 1)
        plan = FaultPlan(seed=6, corrupt_entries=1)
        corrupt_cache_entries(tmp_path, plan)
        assert ResultCache(
            cache_dir=tmp_path, telemetry=telemetry
        ).get("aaaa") is None
        # The torn entry now sits in quarantine/; corrupting again must
        # not pick it as a victim (there is nothing else to tear).
        assert corrupt_cache_entries(tmp_path, plan) == []


class TestTransientMemo:
    def test_each_key_fires_once_per_process(self):
        plan = FaultPlan(seed=1, exception_rate=1.0)
        executor = FaultyExecutor(SerialExecutor(), plan)
        first = executor.map_guarded(identity, [5], FAST_RETRY)
        assert first[0].attempts == 2  # fired, then absorbed
        second = executor.map_guarded(identity, [5], FAST_RETRY)
        assert second[0].attempts == 1  # memo: already delivered

    def test_reset_restores_the_schedule(self):
        plan = FaultPlan(seed=1, exception_rate=1.0)
        executor = FaultyExecutor(SerialExecutor(), plan)
        executor.map_guarded(identity, [5], FAST_RETRY)
        reset_fault_memo()
        again = executor.map_guarded(identity, [5], FAST_RETRY)
        assert again[0].attempts == 2
