"""Stateful ``session.*`` verbs: registry accounting, in-process verb
semantics (including the serve ≡ local-loop identity), and the real-TCP
round trip."""

from __future__ import annotations

import pytest

from repro.control.controllers import IntegralPowerController
from repro.control.loop import ClosedLoopRun
from repro.control.study import CONTROL_RUN_TAG
from repro.engine.cache import ResultCache
from repro.engine.stepping import SteppingSession
from repro.errors import ConfigError, ControlError
from repro.measure.runit import RUnit, RUnitConfig
from repro.serve import (
    ControlSessionRegistry,
    ServeClient,
    SimulationService,
    start_server,
)
from repro.serve.protocol import decode_request

from .conftest import program_payload

CONTROLLER = {"kind": "integral", "gain": 0.5, "setpoint": 0.85}


def open_payload(**overrides) -> dict:
    payload = {
        "op": "session.open",
        "mapping": [program_payload()],
        "controller": dict(CONTROLLER),
        "windows_per_segment": 4,
    }
    payload.update(overrides)
    return payload


class FakeStepping:
    def __init__(self):
        self.position = 2
        self.n_windows = 8
        self.done = False


class FakeLoop:
    def __init__(self):
        self.session = FakeStepping()
        self.violations = 1


class TestRegistry:
    def test_validates_construction(self):
        with pytest.raises(ConfigError):
            ControlSessionRegistry(max_sessions=0)
        with pytest.raises(ConfigError):
            ControlSessionRegistry(ttl_s=0.0)

    def test_capacity_and_serial_ids(self):
        registry = ControlSessionRegistry(max_sessions=2, ttl_s=10.0)
        first = registry.open(FakeLoop(), "a" * 40, "integral", now=0.0)
        second = registry.open(FakeLoop(), "b" * 40, "integral", now=0.0)
        assert first.session_id == "cs-000001"
        assert second.session_id == "cs-000002"
        assert registry.full
        with pytest.raises(ControlError):
            registry.open(FakeLoop(), "c" * 40, "integral", now=0.0)
        registry.close(first.session_id)
        # Ids are never recycled: a stale handle cannot alias a new loop.
        third = registry.open(FakeLoop(), "c" * 40, "integral", now=0.0)
        assert third.session_id == "cs-000003"

    def test_unknown_session_raises(self):
        registry = ControlSessionRegistry()
        with pytest.raises(ControlError):
            registry.get("cs-999999")
        with pytest.raises(ControlError):
            registry.close("cs-999999")

    def test_prune_expires_idle_sessions_only(self):
        registry = ControlSessionRegistry(max_sessions=4, ttl_s=5.0)
        stale = registry.open(FakeLoop(), "a" * 40, "integral", now=0.0)
        fresh = registry.open(FakeLoop(), "b" * 40, "integral", now=0.0)
        registry.get(fresh.session_id, now=4.0)  # touched: stays alive
        expired = registry.prune(now=6.0)
        assert [s.session_id for s in expired] == [stale.session_id]
        assert len(registry) == 1
        stats = registry.stats(now=6.0)
        assert stats["expired"] == 1 and stats["open"] == 1

    def test_stats_report_residency(self):
        registry = ControlSessionRegistry(max_sessions=3, ttl_s=100.0)
        session = registry.open(FakeLoop(), "f" * 40, "integral", now=10.0)
        registry.record_steps(session, 2)
        stats = registry.stats(now=13.0)
        assert stats["open"] == 1 and stats["capacity"] == 3
        assert stats["opened"] == 1 and stats["steps_served"] == 2
        (line,) = stats["residency"]
        assert line["session"] == session.session_id
        assert line["chip"] == "f" * 12
        assert line["position"] == 2 and line["windows"] == 8
        assert line["violations"] == 1
        assert line["age_s"] == 3.0


class TestServiceVerbs:
    def test_open_step_close_round_trip(self, service, telemetry):
        opened = service.handle(open_payload())
        assert opened["ok"] and opened["windows"] == 4
        assert opened["controller"] == "integral"
        session = opened["session"]

        stepped = service.handle(
            {"op": "session.step", "session": session, "steps": 3}
        )
        assert stepped["ok"] and stepped["position"] == 3
        assert not stepped["done"] and "summary" not in stepped
        assert len(stepped["observations"]) == 3
        first = stepped["observations"][0]
        assert first["index"] == 0 and first["n_samples"] > 0
        assert isinstance(first["v_min"], list)

        final = service.handle(
            {"op": "session.step", "session": session, "steps": "all"}
        )
        assert final["done"] and final["summary"]["windows"] == 4

        closed = service.handle({"op": "session.close", "session": session})
        assert closed["ok"] and closed["steps_served"] == 4
        assert closed["summary"] == final["summary"]
        assert telemetry.counter("serve.session.opened") == 1
        assert telemetry.counter("serve.session.steps") == 4
        assert telemetry.counter("serve.session.closed") == 1

    def test_serve_summary_matches_local_loop(
        self, service, chip, cheap_options
    ):
        """The acceptance identity: a serve-driven loop reports byte-
        identical summaries to the same loop driven in-process (and, via
        tests/control/test_study.py, to the gain-sweep study point)."""
        opened = service.handle(open_payload())
        reply = service.handle(
            {"op": "session.step", "session": opened["session"],
             "steps": "all"}
        )
        request = decode_request(
            open_payload(), cheap_options, n_cores=chip.n_cores
        )
        local = ClosedLoopRun(
            SteppingSession(
                chip,
                list(request.mapping),
                request.options,
                run_tag=CONTROL_RUN_TAG,
                windows_per_segment=4,
            ),
            IntegralPowerController(chip.vnom, setpoint=0.85, gain=0.5),
            runit=RUnit(RUnitConfig(), chip.vnom),
        )
        assert reply["summary"] == local.run()

    def test_bad_requests_are_rejected_not_fatal(self, service):
        bad_spec = service.handle(
            open_payload(controller={"kind": "pid"})
        )
        assert not bad_spec["ok"] and bad_spec["status"] == "bad-request"

        bad_windows = service.handle(open_payload(windows_per_segment=0))
        assert bad_windows["status"] == "bad-request"

        unknown = service.handle(
            {"op": "session.step", "session": "cs-424242", "steps": 1}
        )
        assert unknown["status"] == "bad-request"
        assert "unknown control session" in unknown["error"]

        opened = service.handle(open_payload())
        bad_steps = service.handle(
            {"op": "session.step", "session": opened["session"],
             "steps": -1}
        )
        assert bad_steps["status"] == "bad-request"
        # The service keeps serving after every rejection.
        assert service.handle({"op": "health"})["ok"]

    def test_capacity_answers_busy(self, chip, cheap_options, telemetry):
        service = SimulationService(
            chip,
            cheap_options,
            cache=ResultCache(cache_dir=None, telemetry=telemetry),
            jobs=1,
            telemetry=telemetry,
            max_sessions=1,
        ).start()
        try:
            assert service.handle(open_payload())["ok"]
            refused = service.handle(open_payload())
            assert not refused["ok"] and refused["status"] == "busy"
            assert "capacity" in refused["error"]
        finally:
            service.stop()

    def test_health_metrics_and_gauges_account_sessions(
        self, service, telemetry
    ):
        opened = service.handle(open_payload())
        service.handle(
            {"op": "session.step", "session": opened["session"], "steps": 2}
        )
        health = service.handle({"op": "health"})
        sessions = health["control_sessions"]
        assert sessions["open"] == 1 and sessions["opened"] == 1
        (line,) = sessions["residency"]
        assert line["session"] == opened["session"]
        assert line["position"] == 2 and line["steps_served"] == 2

        metrics = service.handle({"op": "metrics"})
        assert metrics["control_sessions"]["steps_served"] == 2

        gauges = service.gauges()
        assert gauges["serve.control.sessions.open"] == 1
        assert gauges["serve.control.steps.served"] == 2
        assert gauges["serve.control.sessions.capacity"] == 8


class TestOverTcp:
    def test_session_verbs_round_trip(self, chip, cheap_options, telemetry):
        service = SimulationService(
            chip,
            cheap_options,
            cache=ResultCache(cache_dir=None, telemetry=telemetry),
            jobs=1,
            telemetry=telemetry,
        )
        server, thread = start_server(service, port=0)
        try:
            with ServeClient(port=server.port) as client:
                opened = client.session_open(
                    [program_payload()],
                    dict(CONTROLLER),
                    windows_per_segment=4,
                )
                assert opened["ok"] and opened["windows"] == 4
                session = opened["session"]
                stepped = client.session_step(session, steps="all")
                assert stepped["done"]
                assert stepped["summary"]["controller"]["kind"] == "integral"
                closed = client.session_close(session)
                assert closed["steps_served"] == 4
                assert closed["summary"] == stepped["summary"]
                # The loop state is gone: stepping again is an error.
                stale = client.session_step(session, steps=1)
                assert stale["status"] == "bad-request"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(10.0)
            service.stop()
