"""The service logic: tiers, coalescing, backpressure, degradation.

These tests drive :meth:`SimulationService.handle` in-process (the TCP
layer adds nothing but framing; it is covered separately) and use the
``GatedService`` seam from conftest to hold execution open while
concurrent requests pile onto it — the only way to make coalescing and
backpressure assertions deterministic.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref

import pytest

from repro.core import generator as generator_module
from repro.engine.cache import ResultCache
from repro.experiments import common
from repro.faults import FaultPlan
from repro.machine.chip import Chip
from repro.machine.runner import RunOptions
from repro.mbench import target as target_module
from repro.obs import Telemetry
from repro.pdn import kernels
from repro.serve import SimulationService

from .conftest import program_payload, simulate_payload


def _spin_until(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:  # pragma: no cover - test bug
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.002)


def test_start_builds_no_stressmark_target(monkeypatch, telemetry):
    """``serve`` reads only the context's chip and options, so starting
    a service over ``quick_context()`` builds no ISA and no target."""
    built = []
    monkeypatch.setattr(
        generator_module, "default_target", lambda: built.append("target")
    )
    monkeypatch.setattr(
        target_module,
        "build_zmainframe_isa",
        lambda *args, **kwargs: built.append("isa"),
    )
    # A fresh generator memo: a generator an earlier test made and read
    # must not hide a build here.
    monkeypatch.setattr(
        common,
        "_shared_generator",
        functools.lru_cache(maxsize=4)(common._shared_generator.__wrapped__),
    )
    context = common.quick_context()
    service = SimulationService(
        context.chip,
        context.options,
        cache=ResultCache(cache_dir=None, telemetry=telemetry),
        jobs=1,
        telemetry=telemetry,
    ).start()
    service.stop()
    assert built == []


class TestTiers:
    def test_cold_executed_then_hot(self, service, telemetry):
        first = service.handle(simulate_payload())
        assert first["ok"] and first["tier"] == "executed"
        second = service.handle(simulate_payload())
        assert second["ok"] and second["tier"] == "hot"
        assert second["fingerprint"] == first["fingerprint"]
        assert telemetry.counter("serve.executed") == 1
        assert telemetry.counter("engine.runs_executed") == 1

    def test_all_tiers_return_identical_results(self, service, telemetry):
        """Acceptance: hot-tier ≡ disk-tier ≡ freshly computed. The
        encoded body must be byte-identical whichever tier answered."""
        executed = service.handle(simulate_payload())
        hot = service.handle(simulate_payload())
        service.hot.clear()  # force the next query down to the cache
        cached = service.handle(simulate_payload())
        assert executed["tier"] == "executed"
        assert hot["tier"] == "hot"
        assert cached["tier"] == "cache"
        assert executed["result"] == hot["result"] == cached["result"]
        # One execution total, across all three queries.
        assert telemetry.counter("serve.executed") == 1
        assert telemetry.counter("engine.runs_executed") == 1

    def test_cache_tier_spans_service_restarts(self, chip, cheap_options,
                                               tmp_path):
        """The disk tier outlives the process: a fresh service over the
        same cache directory answers without executing."""
        telemetry_a = Telemetry()
        svc = SimulationService(
            chip, cheap_options,
            cache=ResultCache(cache_dir=tmp_path, telemetry=telemetry_a),
            jobs=1, telemetry=telemetry_a,
        ).start()
        first = svc.handle(simulate_payload())
        svc.stop()

        telemetry_b = Telemetry()
        reborn = SimulationService(
            chip, cheap_options,
            cache=ResultCache(cache_dir=tmp_path, telemetry=telemetry_b),
            jobs=1, telemetry=telemetry_b,
        ).start()
        replay = reborn.handle(simulate_payload())
        reborn.stop()
        assert first["tier"] == "executed"
        assert replay["tier"] == "cache"
        assert replay["result"] == first["result"]
        assert telemetry_b.counter("engine.runs_executed") == 0

    def test_requests_sharing_a_timing_equal_fresh_services(
        self, chip, monkeypatch
    ):
        """Two novel requests that differ only in ``i_high`` share their
        stimulus timing: the second reads every segment's grid from the
        first's (``engine.timing.hits``, shown by the ``metrics`` verb),
        and each reply equals a fresh service's on a fresh chip."""
        options = RunOptions(segments=4, base_samples=512)
        payloads = [
            {"op": "simulate", "tag": "timing",
             "mapping": [program_payload(i_high, 2.6e6)] * 2}
            for i_high in (22.001, 22.002)
        ]

        def start(chip):
            telemetry = Telemetry()
            return SimulationService(
                chip, options,
                cache=ResultCache(cache_dir=None, telemetry=telemetry),
                jobs=1, telemetry=telemetry,
            ).start()

        def timing(svc) -> tuple[int, int]:
            counters = svc.handle({"op": "metrics"})["metrics"]["counters"]
            return (
                counters.get("engine.timing.hits", 0),
                counters.get("engine.timing.misses", 0),
            )

        chip.compiled_kernel  # compiled into the process-wide memo
        shared = start(chip)
        try:
            first = shared.handle(payloads[0])
            hits, misses = timing(shared)
            second = shared.handle(payloads[1])
            assert timing(shared) == (hits + options.segments, misses)
        finally:
            shared.stop()

        for payload, reply in zip(payloads, (first, second)):
            # A kernel memo of its own: the fresh chip shares no kernel.
            monkeypatch.setattr(
                kernels, "_KERNEL_CACHE", weakref.WeakValueDictionary()
            )
            fresh = start(Chip(chip.config, chip.chip_id))
            try:
                alone = fresh.handle(payload)
                assert timing(fresh) == (0, options.segments)
            finally:
                fresh.stop()
            assert reply["tier"] == alone["tier"] == "executed"
            assert reply["result"] == alone["result"]

    def test_distinct_requests_distinct_fingerprints(self, service):
        a = service.handle(simulate_payload(i_high=25.0))
        b = service.handle(simulate_payload(i_high=26.0))
        assert a["fingerprint"] != b["fingerprint"]
        assert a["result"] != b["result"]


class TestCoalescing:
    def test_concurrent_identical_requests_execute_once(
        self, gated_service, telemetry
    ):
        """Acceptance: 8 concurrent identical cold queries → exactly
        one engine execution; 7 riders coalesce onto the leader."""
        svc = gated_service
        replies: list[dict] = [None] * 8

        def client(slot: int) -> None:
            replies[slot] = svc.handle(simulate_payload())

        threads = [
            threading.Thread(target=client, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        # All eight must be attached to one flight before execution is
        # allowed to proceed: 1 leader queued, 7 counted as coalesced.
        _spin_until(lambda: svc.entered.is_set(), what="executor entry")
        _spin_until(
            lambda: telemetry.counter("serve.coalesced") == 7,
            what="riders to attach",
        )
        assert svc.flights.in_flight() == 1
        svc.gate.set()
        for thread in threads:
            thread.join(30.0)

        assert all(reply["ok"] for reply in replies)
        tiers = sorted(reply["tier"] for reply in replies)
        assert tiers.count("executed") == 1
        assert tiers.count("coalesced") == 7
        bodies = {repr(reply["result"]) for reply in replies}
        assert len(bodies) == 1, "riders must see the leader's result"
        # The acceptance counter: one execution, engine-confirmed.
        assert telemetry.counter("serve.executed") == 1
        assert telemetry.counter("engine.runs_executed") == 1
        assert telemetry.counter("serve.coalesced") == 7
        assert telemetry.counter("serve.requests") == 8

    def test_flight_retires_after_resolution(self, service):
        service.handle(simulate_payload())
        assert service.flights.in_flight() == 0


class TestBackpressure:
    def test_busy_reply_when_queue_full(self, chip, cheap_options):
        """queue_limit=1: with the executor wedged on request A and
        request B occupying the queue, request C is shed with a busy
        reply carrying a retry hint — and never reaches the engine."""
        from .conftest import GatedService

        telemetry = Telemetry()
        svc = GatedService(
            chip, cheap_options,
            cache=ResultCache(cache_dir=None, telemetry=telemetry),
            jobs=1, telemetry=telemetry,
            queue_limit=1, max_batch=1,
        ).start()
        try:
            replies: dict[str, dict] = {}

            def client(name: str, i_high: float) -> None:
                replies[name] = svc.handle(simulate_payload(i_high=i_high))

            thread_a = threading.Thread(target=client, args=("a", 25.0))
            thread_a.start()
            _spin_until(lambda: svc.entered.is_set(), what="A to execute")

            thread_b = threading.Thread(target=client, args=("b", 26.0))
            thread_b.start()
            _spin_until(
                lambda: svc._queue.qsize() == 1, what="B to occupy the queue"
            )

            # C cannot be admitted: immediate busy, synchronously.
            busy = svc.handle(simulate_payload(i_high=27.0))
            assert busy["ok"] is False
            assert busy["status"] == "busy"
            assert busy["retry_after_s"] > 0
            assert telemetry.counter("serve.busy") == 1

            svc.gate.set()
            thread_a.join(30.0)
            thread_b.join(30.0)
            assert replies["a"]["ok"] and replies["a"]["tier"] == "executed"
            assert replies["b"]["ok"] and replies["b"]["tier"] == "executed"
            # The shed request never executed anywhere.
            assert telemetry.counter("serve.executed") == 2
            # Backpressure cleared: C succeeds on retry.
            retry = svc.handle(simulate_payload(i_high=27.0))
            assert retry["ok"] and retry["tier"] == "executed"
        finally:
            svc.gate.set()
            svc.stop()

    def test_closing_service_sheds_new_requests(self, service):
        service.handle(simulate_payload())  # warm one entry
        service._closing = True
        try:
            # Hot tier still answers while draining...
            hot = service.handle(simulate_payload())
            assert hot["ok"] and hot["tier"] == "hot"
            # ...but cold work is refused.
            cold = service.handle(simulate_payload(i_high=26.0))
            assert cold["status"] == "busy"
        finally:
            service._closing = False


class TestVerbs:
    def test_health_shape(self, service):
        health = service.handle({"op": "health"})
        assert health["ok"] is True
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        assert health["queue_limit"] == 32
        assert health["in_flight"] == 0
        assert set(health["hot"]) >= {"entries", "capacity", "hits"}
        assert health["executor"] == "serial"
        assert "backend" not in health  # one solve path, nothing to report
        assert len(health["chip"]) == 64  # digest, not the raw identity

    def test_metrics_shape(self, service):
        service.handle(simulate_payload())
        metrics = service.handle({"op": "metrics"})
        assert metrics["ok"] is True
        counters = metrics["metrics"]["counters"]
        assert counters["serve.requests"] == 1
        assert counters["serve.tier.executed"] == 1
        assert "serve.request.seconds" in metrics["metrics"]["histograms"]

    def test_unknown_op_is_bad_request(self, service, telemetry):
        reply = service.handle({"op": "frobnicate"})
        assert reply["ok"] is False
        assert reply["status"] == "bad-request"
        assert telemetry.counter("serve.bad_requests") == 1

    def test_malformed_simulate_is_bad_request(self, service):
        reply = service.handle({"op": "simulate", "mapping": "nope"})
        assert reply["ok"] is False
        assert reply["status"] == "bad-request"
        assert "mapping" in reply["error"]

    def test_shutdown_op_acknowledged_in_process(self, service):
        reply = service.handle({"op": "shutdown"})
        assert reply["ok"] is True and reply["stopping"] is True


class TestDegradation:
    def test_transient_worker_death_absorbed_by_retry(
        self, chip, cheap_options
    ):
        """A worker dying mid-request (injected crash, transient) is
        retried by the session underneath the service: the client sees
        a normal reply, the retry is visible only in the counters."""
        telemetry = Telemetry()
        svc = SimulationService(
            chip, cheap_options,
            cache=ResultCache(cache_dir=None, telemetry=telemetry),
            jobs=1, telemetry=telemetry,
            faults=FaultPlan(seed=3, crash_rate=1.0, transient=True),
        ).start()
        try:
            reply = svc.handle(simulate_payload())
            assert reply["ok"] is True
            assert reply["tier"] == "executed"
            assert telemetry.counter("engine.retries") >= 1
            assert telemetry.counter("serve.failures") == 0
        finally:
            svc.stop()

    def test_permanent_failure_is_an_error_reply_not_a_dead_server(
        self, chip, cheap_options
    ):
        """A run that fails past its retry budget becomes a structured
        error reply for that request only; the service keeps serving."""
        telemetry = Telemetry()
        svc = SimulationService(
            chip, cheap_options,
            cache=ResultCache(cache_dir=None, telemetry=telemetry),
            jobs=1, telemetry=telemetry,
            faults=FaultPlan(seed=3, exception_rate=1.0, transient=False),
        ).start()
        try:
            reply = svc.handle(simulate_payload())
            assert reply["ok"] is False
            assert reply["status"] == "error"
            assert "fail" in reply["error"].lower()
            assert telemetry.counter("serve.failures") == 1
            # Still alive and answering.
            assert svc.handle({"op": "health"})["ok"] is True
            again = svc.handle(simulate_payload(i_high=26.0))
            assert again["ok"] is False and again["status"] == "error"
            assert svc.flights.in_flight() == 0
        finally:
            svc.stop()

    def test_executor_thread_survives_unexpected_errors(self, service):
        """A bug-class exception inside the batch path rejects the
        affected flights and keeps the drain loop alive."""
        original = service._process

        def explode(batch):
            service._process = original  # heal after one explosion
            raise RuntimeError("synthetic batch bug")

        service._process = explode
        reply = service.handle(simulate_payload())
        assert reply["ok"] is False
        assert "synthetic batch bug" in reply["error"]
        assert service.telemetry.counter("serve.batch_errors") == 1
        # The next request sails through the healed path.
        healthy = service.handle(simulate_payload())
        assert healthy["ok"] is True and healthy["tier"] == "executed"


class TestWarmKernel:
    def test_start_precompiles_kernel(self, service, telemetry):
        assert "engine.kernel.compile_seconds" in telemetry.timers

    def test_uncompilable_chip_refuses_to_start(
        self, chip, cheap_options, monkeypatch
    ):
        from repro.errors import SolverError
        from repro.machine.chip import Chip

        def boom(self):
            raise SolverError("injected kernel compile failure")

        monkeypatch.delitem(chip.__dict__, "compiled_kernel", raising=False)
        monkeypatch.setattr(Chip, "compiled_kernel", property(boom))
        svc = SimulationService(
            chip, cheap_options, cache=ResultCache(cache_dir=None)
        )
        with pytest.raises(SolverError, match="injected"):
            svc.start()
        assert svc._thread is None


class TestValidation:
    def test_queue_limit_validated(self, chip, cheap_options):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="queue_limit"):
            SimulationService(chip, cheap_options, queue_limit=0,
                              cache=ResultCache(cache_dir=None))

    def test_max_batch_validated(self, chip, cheap_options):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="max_batch"):
            SimulationService(chip, cheap_options, max_batch=0,
                              cache=ResultCache(cache_dir=None))

    def test_batching_executes_grouped_requests(self, chip, cheap_options):
        """Distinct queued requests drain into one engine batch."""
        from .conftest import GatedService

        telemetry = Telemetry()
        svc = GatedService(
            chip, cheap_options,
            cache=ResultCache(cache_dir=None, telemetry=telemetry),
            jobs=1, telemetry=telemetry, max_batch=4,
        ).start()
        try:
            replies: list[dict] = [None] * 3

            def client(slot: int) -> None:
                replies[slot] = svc.handle(
                    simulate_payload(i_high=25.0 + slot)
                )

            threads = [
                threading.Thread(target=client, args=(slot,))
                for slot in range(3)
            ]
            threads[0].start()
            _spin_until(lambda: svc.entered.is_set(), what="first execute")
            for thread in threads[1:]:
                thread.start()
            _spin_until(
                lambda: svc._queue.qsize() == 2, what="queue to fill"
            )
            svc.gate.set()
            for thread in threads:
                thread.join(30.0)
            assert all(r["ok"] and r["tier"] == "executed" for r in replies)
            assert telemetry.counter("serve.executed") == 3
            assert len({r["fingerprint"] for r in replies}) == 3
        finally:
            svc.gate.set()
            svc.stop()
