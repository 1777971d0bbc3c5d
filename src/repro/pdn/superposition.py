"""Current edge trains: the stimulus every PDN solve superposes.

A stressmark run is, electrically, a set of current **edge trains**: each
core's activity is a piecewise-constant current whose transitions (the
paper's ΔI events) are ramps with the pipeline's power rise time.
Because the PDN is linear and time invariant, the voltage at any node is
the superposition of scaled, shifted ramp responses, one per edge; the
compiled chip kernel (:mod:`repro.pdn.kernels`) evaluates that sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SolverError

__all__ = ["EdgeTrain", "edges_from_square_wave"]


@dataclass
class EdgeTrain:
    """Signed current transitions injected at one load port.

    ``times[k]`` is the start instant of edge ``k`` and ``deltas[k]`` its
    signed magnitude in amperes (positive = current increase = droop).
    """

    port: str
    times: np.ndarray
    deltas: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.deltas = np.asarray(self.deltas, dtype=float)
        if self.times.shape != self.deltas.shape:
            raise SolverError("edge times and deltas must have matching shapes")

    def shifted(self, offset: float) -> "EdgeTrain":
        """A copy of the train delayed by *offset* seconds."""
        return EdgeTrain(self.port, self.times + offset, self.deltas.copy())


def edges_from_square_wave(
    port: str,
    delta_i: float,
    freq_hz: float,
    n_events: int,
    start: float = 0.0,
    duty: float = 0.5,
    rise_time: float = 0.0,
) -> EdgeTrain:
    """Edge train of a dI/dt stressmark burst.

    The burst alternates high/low power at *freq_hz*; each of the
    *n_events* loop iterations contributes a rising edge (+ΔI) at the
    period start and a falling edge (−ΔI) after ``duty`` of the period.
    The current returns to the low level after the burst.

    When the half-period is shorter than *rise_time* the achievable
    current swing collapses (the pipeline cannot complete the power
    transition): the delta is derated proportionally, which is what makes
    very high stimulus frequencies "too high to generate ΔI events" in
    the paper's Figure 12.
    """
    if freq_hz <= 0:
        raise SolverError("stimulus frequency must be positive")
    if n_events < 1:
        raise SolverError("need at least one ΔI event")
    if not 0.0 < duty < 1.0:
        raise SolverError(f"duty must be in (0, 1), got {duty!r}")
    period = 1.0 / freq_hz
    half = period * min(duty, 1.0 - duty)
    effective = delta_i
    if rise_time > 0.0 and half < rise_time:
        effective = delta_i * half / rise_time
    starts = start + np.arange(n_events) * period
    times = np.empty(2 * n_events)
    deltas = np.empty(2 * n_events)
    times[0::2] = starts
    times[1::2] = starts + duty * period
    deltas[0::2] = +effective
    deltas[1::2] = -effective
    return EdgeTrain(port, times, deltas)
