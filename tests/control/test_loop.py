"""Closed-loop harness unit tests (fake session; no engine)."""

from __future__ import annotations

import pytest

from repro.control.api import Controller
from repro.control.loop import SOLVER_LABEL, ClosedLoopRun, loop_summary
from repro.engine.stepping import Actuation
from repro.measure.runit import RUnit, RUnitConfig

from .conftest import make_observation


class FakeChip:
    vnom = 1.0


class FakeSteppingSession:
    """Replays a prepared observation list, applying bias actuations
    the way the real session does (offset folded into the window)."""

    chip = FakeChip()

    def __init__(self, windows):
        self._windows = list(windows)
        self._cursor = 0
        self.applied: list[Actuation | None] = []

    @property
    def done(self):
        return self._cursor >= len(self._windows)

    def step(self, actuation=None):
        self.applied.append(actuation)
        window = self._windows[self._cursor]
        self._cursor += 1
        return window


class Pulse(Controller):
    kind = "pulse"

    def __init__(self, at, steps):
        self.at = at
        self.steps = steps

    def observe(self, window):
        if window.index + 1 == self.at:
            return Actuation(bias_steps=self.steps)
        return None

    def summary(self):
        return {"kind": self.kind}


class TestLoopSummary:
    def test_empty_loop(self):
        summary = loop_summary([], 1.0)
        assert summary["windows"] == 0
        assert summary["droop_v"] == 0.0
        assert summary["final_bias"] == 1.0

    def test_metrics(self):
        observations = [
            make_observation(0),
            make_observation(1, bias=0.95, worst=0.9),
            make_observation(2, bias=0.95, droop_events=3),
        ]
        summary = loop_summary(observations, 1.0, violations=1,
                               violation_windows=[1])
        assert summary["windows"] == 3
        assert summary["droop_v"] == pytest.approx(0.1)
        assert summary["overshoot_v"] == pytest.approx(0.02)
        # Bias changed entering window 1, then held: settling there.
        assert summary["settling_window"] == 1
        assert summary["transitions"] == 1
        assert summary["min_bias"] == 0.95
        assert summary["final_bias"] == 0.95
        assert summary["droop_events"] == 3
        assert summary["violations"] == 1
        assert summary["violation_windows"] == [1]


class TestClosedLoopRun:
    def test_one_window_actuation_latency(self):
        session = FakeSteppingSession(
            [make_observation(i) for i in range(4)]
        )
        loop = ClosedLoopRun(session, Pulse(at=2, steps=-4))
        loop.run()
        # The controller's answer to window 1 lands before window 2.
        assert session.applied[0] is None  # nothing primed
        assert session.applied[1] is None
        assert session.applied[2].bias_steps == -4
        assert session.applied[3] is None

    def test_runit_violations_accumulate(self):
        config = RUnitConfig()
        fail = config.v_fail_frac * 1.0
        session = FakeSteppingSession([
            make_observation(0),
            make_observation(1, worst=fail - 0.01),
            make_observation(2, worst=fail - 0.02),
        ])
        loop = ClosedLoopRun(
            session, Pulse(at=99, steps=0), runit=RUnit(config, 1.0)
        )
        summary = loop.run()
        assert summary["violations"] == 2
        assert summary["violation_windows"] == [1, 2]
        assert summary["controller"] == {"kind": "pulse"}
        assert summary["backend"] == SOLVER_LABEL == "batched"

    def test_summary_before_completion_reflects_progress(self):
        session = FakeSteppingSession(
            [make_observation(i) for i in range(3)]
        )
        loop = ClosedLoopRun(session, Pulse(at=99, steps=0))
        loop.step()
        assert loop.summary()["windows"] == 1
        loop.run()
        assert loop.summary()["windows"] == 3
