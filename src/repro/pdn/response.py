"""Precomputed ramp response library for fast waveform assembly.

Multi-core stressmark runs are assembled by linear superposition
(:mod:`repro.pdn.superposition`): every current edge a workload produces
is a scaled, shifted copy of the network's **ramp response** (a step
smoothed over the pipeline's power rise time).  This module precomputes
those responses once per chip on a composite time grid — densely sampled
where the fast dynamics live, geometrically sampled out to the slowest
board mode — using the exact modal solution, then answers lookups by
interpolation.

This is the simulation analogue of "characterize the PDN once, then
reason about any workload on top of it".
"""

from __future__ import annotations

import numpy as np

from ..errors import SolverError
from .netlist import Netlist
from .state_space import ModalSystem, build_state_space

__all__ = ["ResponseLibrary"]


class ResponseLibrary:
    """Sampled unit ramp responses and DC gains for (port, node) pairs.

    Parameters
    ----------
    netlist:
        The PDN circuit.
    ports:
        Load (current) port names to precompute sources for.
    nodes:
        Node names to observe.
    rise_time:
        Current edge rise time (s); the ramp response is the step
        response convolved with a rectangular window of this width.
    fine_dt, fine_end:
        Uniform sampling step and extent of the fine grid region.
        ``fine_end`` defaults to the larger of 6 µs and 40 rise times.
    horizon:
        Total extent of the sampled responses.  Defaults to eight times
        the slowest network time constant (clamped to [50 µs, 20 ms]).
    coarse_points:
        Number of geometrically spaced samples between ``fine_end`` and
        ``horizon``.
    """

    def __init__(
        self,
        netlist: Netlist,
        ports: list[str],
        nodes: list[str],
        rise_time: float = 2e-9,
        fine_dt: float = 0.5e-9,
        fine_end: float | None = None,
        horizon: float | None = None,
        coarse_points: int = 3000,
        modal: ModalSystem | None = None,
    ):
        if rise_time <= 0 or fine_dt <= 0:
            raise SolverError("rise_time and fine_dt must be positive")
        if not ports or not nodes:
            raise SolverError("need at least one port and one node")
        self.netlist = netlist
        self.ports = list(ports)
        self.nodes = list(nodes)
        self.rise_time = float(rise_time)
        self.modal = modal if modal is not None else ModalSystem(build_state_space(netlist))

        if fine_end is None:
            fine_end = max(6e-6, 40.0 * rise_time)
        if horizon is None:
            tau = self.modal.slowest_time_constant()
            horizon = min(max(8.0 * tau, 50e-6), 20e-3)
        if horizon <= fine_end:
            horizon = 4.0 * fine_end
        self.horizon = float(horizon)

        fine = np.arange(0.0, fine_end, fine_dt)
        coarse = np.geomspace(fine_end, horizon, coarse_points)
        self.grid = np.unique(np.concatenate([fine, coarse]))

        self._ramp: dict[tuple[str, str], np.ndarray] = {}
        self._dc: dict[tuple[str, str], float] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        # One phase matrix on the grid serves every port.
        all_responses = self.modal.step_responses(
            self.ports, self.nodes, self.grid
        )
        # The ramp tables are fresh arrays, so no step response outlives
        # the build.
        for port, responses in zip(self.ports, all_responses):
            for row, node in enumerate(self.nodes):
                step = responses[row]
                self._ramp[(port, node)] = self._smooth(step)
                self._dc[(port, node)] = float(step[-1])

    def _smooth(self, step: np.ndarray) -> np.ndarray:
        """Ramp response: moving average of the step response over the
        rise-time window, honoring causality (response is 0 for t < 0)."""
        tau = self.rise_time
        # Cumulative integral of the step response on the grid.
        increments = np.diff(self.grid) * 0.5 * (step[1:] + step[:-1])
        cumulative = np.concatenate([[0.0], np.cumsum(increments)])
        shifted = np.interp(self.grid - tau, self.grid, cumulative, left=0.0)
        return (cumulative - shifted) / tau

    # ------------------------------------------------------------------
    def _lookup(
        self, table: dict[tuple[str, str], np.ndarray], port: str, node: str
    ) -> np.ndarray:
        try:
            return table[(port, node)]
        except KeyError:
            raise SolverError(
                f"response for port {port!r} -> node {node!r} was not precomputed"
            ) from None

    def ramp(self, port: str, node: str, times: np.ndarray) -> np.ndarray:
        """Unit ramp-edge response evaluated at *times* (causal; flat at
        the DC value beyond the horizon)."""
        table = self._lookup(self._ramp, port, node)
        return self._eval(table, self._dc[(port, node)], times)

    def dc(self, port: str, node: str) -> float:
        """Steady-state voltage change per ampere of sustained load."""
        self._lookup(self._ramp, port, node)
        return self._dc[(port, node)]

    def _eval(self, samples: np.ndarray, dc: float, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        return np.interp(times, self.grid, samples, left=0.0, right=dc)
