"""The observe → actuate loop binding a controller to a stepping
session, plus the summary metrics every driving path reports.

The loop owns the one-window actuation latency: the controller's
answer to window *k* is held and applied just before window *k + 1* is
solved.  An optional R-Unit checks every window's observed worst
instantaneous voltage (bias and simultaneous-switching deepening
included), so undervolting controllers accumulate *violations* exactly
the way the Vmin protocol detects failures.

Summaries are plain JSON-safe dicts — identical whether the loop ran
in-process, under the CLI verb, inside a plan-compiled experiment or
behind the serve ``session.*`` verbs, which is what the three-path
acceptance check compares.
"""

from __future__ import annotations

from ..engine.stepping import SteppingSession, WindowObservation
from ..measure.runit import RUnit
from ..obs import Telemetry, get_telemetry
from .api import Controller

__all__ = ["ClosedLoopRun", "loop_summary", "SOLVER_LABEL"]

#: The ``"backend"`` value of every control summary and study export.
#: It names no choice (the compiled kernel is the only solver); it is
#: kept, with the kernel's established label, because the pinned
#: ``ctrl-gain``/``ctrl-attack`` exports carry it.
SOLVER_LABEL = "batched"


def loop_summary(
    observations: list[WindowObservation],
    vnom: float,
    *,
    violations: int = 0,
    violation_windows: list[int] | None = None,
) -> dict:
    """Control-quality metrics of one completed loop.

    ``droop_v`` is the deepest observed excursion below nominal
    (bias and SSN deepening included), ``overshoot_v`` the highest
    excursion above it, and ``settling_window`` the index of the last
    bias change — after it the supply command is constant, the
    classic settling measure of a step response.
    """
    if not observations:
        return {
            "windows": 0,
            "droop_v": 0.0,
            "overshoot_v": 0.0,
            "settling_window": 0,
            "transitions": 0,
            "mean_bias": 1.0,
            "final_bias": 1.0,
            "min_bias": 1.0,
            "droop_events": 0,
            "violations": int(violations),
            "violation_windows": list(violation_windows or []),
        }
    biases = [obs.supply_bias for obs in observations]
    transitions = 0
    settling = 0
    previous = 1.0
    for index, bias in enumerate(biases):
        if bias != previous:
            transitions += 1
            settling = index
        previous = bias
    worst = min(obs.worst_vmin for obs in observations)
    highest = max(max(obs.v_max) for obs in observations)
    return {
        "windows": len(observations),
        "droop_v": float(max(vnom - worst, 0.0)),
        "overshoot_v": float(max(highest - vnom, 0.0)),
        "settling_window": int(settling),
        "transitions": int(transitions),
        "mean_bias": float(sum(biases) / len(biases)),
        "final_bias": float(biases[-1]),
        "min_bias": float(min(biases)),
        "droop_events": int(sum(obs.droop_events for obs in observations)),
        "violations": int(violations),
        "violation_windows": list(violation_windows or []),
    }


class ClosedLoopRun:
    """One controller driving one stepping session to completion."""

    def __init__(
        self,
        session: SteppingSession,
        controller: Controller,
        runit: RUnit | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.session = session
        self.controller = controller
        self.runit = runit
        self.telemetry = telemetry or get_telemetry()
        self.observations: list[WindowObservation] = []
        self.violation_windows: list[int] = []
        self._pending = controller.prime()

    @property
    def violations(self) -> int:
        return len(self.violation_windows)

    def step(self) -> WindowObservation:
        """Advance one window: apply the held actuation, solve,
        check the R-Unit, ask the controller for the next move."""
        observation = self.session.step(self._pending)
        self.observations.append(observation)
        if self.runit is not None and self.runit.check(
            observation.worst_vmin
        ):
            self.violation_windows.append(observation.index)
            self.telemetry.increment("control.violations")
        self._pending = self.controller.observe(observation)
        return observation

    def run(self) -> dict:
        """Step every remaining window; return :meth:`summary`."""
        while not self.session.done:
            self.step()
        return self.summary()

    def summary(self) -> dict:
        """Loop metrics plus the controller's own diagnostics."""
        summary = loop_summary(
            self.observations,
            self.session.chip.vnom,
            violations=self.violations,
            violation_windows=self.violation_windows,
        )
        summary["controller"] = self.controller.summary()
        summary["backend"] = SOLVER_LABEL
        return summary
