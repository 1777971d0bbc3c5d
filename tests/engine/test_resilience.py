"""Resilience primitive tests: retry policy, guarded execution,
timeouts, structured failures."""

import pickle
import time

import pytest

from repro.engine.resilience import (
    GuardedOutcome,
    RetryPolicy,
    RunFailure,
    call_with_timeout,
    guarded_call,
)
from repro.errors import ConfigError, RunTimeoutError


class _Flaky:
    """Fails the first *failures* calls, then succeeds."""

    def __init__(self, failures, error=ValueError("transient")):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return x * 10


class TestRetryPolicy:
    def test_defaults_are_sane(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.run_timeout_s is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_s": -0.1},
            {"backoff_factor": 0.5},
            {"run_timeout_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)

    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3
        )
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.3)  # capped
        assert policy.backoff_s(9) == pytest.approx(0.3)
        assert policy.backoff_s(0) == 0.0

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
        monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
        assert RetryPolicy.from_env() == RetryPolicy()
        monkeypatch.setenv("REPRO_MAX_RETRIES", " 5 ")
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "2.5")
        policy = RetryPolicy.from_env()
        assert policy.max_retries == 5
        assert policy.run_timeout_s == 2.5

    @pytest.mark.parametrize(
        "name,value",
        [("REPRO_MAX_RETRIES", "two"), ("REPRO_RUN_TIMEOUT", "fast")],
    )
    def test_bad_env_rejected(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ConfigError):
            RetryPolicy.from_env()


class TestGuardedCall:
    def test_success_first_try(self):
        outcome = guarded_call(lambda x: x + 1, 1)
        assert outcome.ok
        assert outcome.value == 2
        assert outcome.attempts == 1

    def test_transient_failure_is_retried(self):
        fn = _Flaky(failures=2)
        outcome = guarded_call(
            fn, 4, RetryPolicy(max_retries=2, backoff_base_s=0.0)
        )
        assert outcome.ok
        assert outcome.value == 40
        assert outcome.attempts == 3

    def test_exhausted_budget_becomes_run_failure(self):
        fn = _Flaky(failures=10)
        outcome = guarded_call(
            fn,
            4,
            RetryPolicy(max_retries=1, backoff_base_s=0.0),
            label="point-4",
            fingerprint="cafe",
        )
        assert not outcome.ok
        assert outcome.attempts == 2
        failure = outcome.failure
        assert failure.label == "point-4"
        assert failure.fingerprint == "cafe"
        assert failure.error_type == "ValueError"
        assert "transient" in failure.message
        assert "ValueError" in failure.traceback
        assert "point-4" in failure.describe()

    def test_backoff_schedule_drives_the_sleeps(self):
        slept = []
        guarded_call(
            _Flaky(failures=10),
            1,
            RetryPolicy(
                max_retries=3, backoff_base_s=0.1, backoff_factor=2.0,
                backoff_max_s=10.0,
            ),
            sleep=slept.append,
        )
        assert slept == pytest.approx([0.1, 0.2, 0.4])

    def test_config_error_fails_on_first_attempt(self):
        """A bad input fails the same way every time: no retry and no
        backoff sleep, whatever the retry budget."""
        fn = _Flaky(failures=10, error=ConfigError("mapping must cover"))
        slept = []
        outcome = guarded_call(
            fn, 1, RetryPolicy(max_retries=3), sleep=slept.append
        )
        assert not outcome.ok
        assert outcome.attempts == 1
        assert fn.calls == 1
        assert slept == []
        assert outcome.failure.error_type == "ConfigError"

    def test_keyboard_interrupt_propagates(self):
        def interrupt(_):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            guarded_call(interrupt, 1, RetryPolicy(max_retries=5))

    def test_timeout_counts_and_retries(self):
        calls = {"n": 0}

        def slow_once(x):
            calls["n"] += 1
            if calls["n"] == 1:
                time.sleep(0.5)
            return x

        outcome = guarded_call(
            slow_once,
            3,
            RetryPolicy(
                max_retries=1, backoff_base_s=0.0, run_timeout_s=0.05
            ),
        )
        assert outcome.ok
        assert outcome.value == 3
        assert outcome.timeouts == 1
        assert outcome.attempts == 2


class TestCallWithTimeout:
    def test_no_budget_runs_inline(self):
        assert call_with_timeout(lambda x: x * 2, 3, None) == 6

    def test_fast_call_fits_the_budget(self):
        assert call_with_timeout(lambda x: x * 2, 3, 5.0) == 6

    def test_slow_call_raises(self):
        with pytest.raises(RunTimeoutError, match="wall-clock"):
            call_with_timeout(lambda _: time.sleep(1.0), None, 0.05)

    def test_worker_exception_propagates(self):
        def boom(_):
            raise RuntimeError("inner")

        with pytest.raises(RuntimeError, match="inner"):
            call_with_timeout(boom, None, 1.0)


class TestRunFailure:
    def test_is_picklable_with_carried_exception(self):
        failure = RunFailure.from_exception(
            ValueError("bad point"), label="p1", attempts=3
        )
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.message == "bad point"
        assert clone.attempts == 3
        assert isinstance(clone.exception, ValueError)

    def test_unpicklable_exception_is_dropped_not_fatal(self):
        error = ValueError("holds a closure")
        error.payload = lambda: None  # unpicklable attribute
        failure = RunFailure.from_exception(error)
        assert failure.exception is None
        assert failure.error_type == "ValueError"
        pickle.loads(pickle.dumps(failure))  # still crosses processes

    def test_outcome_ok_property(self):
        assert GuardedOutcome(value=1).ok
        assert not GuardedOutcome(
            failure=RunFailure.from_exception(ValueError())
        ).ok
