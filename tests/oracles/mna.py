"""Trapezoidal modified-nodal-analysis transient engine.

This is the reference time-domain solver for PDN netlists.  It plays the
role the Cadence/Sigrity tool played for the paper's authors: an
independent engine used to confirm what the primary (modal) solution
predicts.  The test suite cross-checks the two solvers against each
other on random networks; no production path runs it, which is why it
lives here and why scipy is a test dependency only.

The method is the classic SPICE approach: companion models for the
reactive elements under trapezoidal integration, a constant system
matrix for a fixed time step (factorized once), and a per-step
right-hand-side update.  Because that update is linear with constant
matrices, the engine steps unit columns through the factorization once
to get the step map, then iterates it as one small matrix-vector
product per step.  Trapezoidal integration is A-stable, which
matters because PDN netlists are stiff (sub-nanosecond ESR/C time
constants next to hundred-microsecond board modes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from repro.errors import SolverError
from repro.pdn.elements import GROUND
from repro.pdn.netlist import Netlist

__all__ = ["TransientResult", "simulate_transient"]

#: An input signal: either a constant or a vectorized function of time.
InputSignal = float | Callable[[np.ndarray], np.ndarray]


@dataclass
class TransientResult:
    """Time-domain solution of a transient run.

    Attributes
    ----------
    times:
        Sample instants (s), uniform grid.
    voltages:
        Node name → voltage waveform (V), for each observed node.
    """

    times: np.ndarray
    voltages: dict[str, np.ndarray]

    def peak_to_peak(self, node: str, after: float = 0.0) -> float:
        """Peak-to-peak voltage excursion at *node* for t >= *after*."""
        mask = self.times >= after
        wave = self.voltages[node][mask]
        if wave.size == 0:
            raise SolverError(f"no samples at or after t={after!r}")
        return float(wave.max() - wave.min())


def _evaluate_inputs(
    netlist: Netlist, inputs: Mapping[str, InputSignal], times: np.ndarray
) -> np.ndarray:
    """Build the (n_steps × n_inputs) input matrix from signals.

    Unspecified current ports default to zero; unspecified voltage ports
    are an error (a floating source has no sensible default).
    """
    names = netlist.input_names
    u = np.zeros((times.size, len(names)))
    known = set(names)
    for name in inputs:
        if name not in known:
            raise SolverError(f"unknown input {name!r}")
    voltage_names = {p.name for p in netlist.voltage_ports}
    for j, name in enumerate(names):
        signal = inputs.get(name)
        if signal is None:
            if name in voltage_names:
                raise SolverError(f"voltage port {name!r} needs a supplied value")
            continue
        if callable(signal):
            u[:, j] = np.asarray(signal(times), dtype=float)
        else:
            u[:, j] = float(signal)
    return u


def simulate_transient(
    netlist: Netlist,
    inputs: Mapping[str, InputSignal],
    t_end: float,
    dt: float,
    observe: list[str] | None = None,
) -> TransientResult:
    """Integrate the netlist from a zero initial state over [0, t_end].

    Parameters
    ----------
    netlist:
        The circuit; validated before use.
    inputs:
        Input name → constant or vectorized ``f(times) -> values``.
        Current ports default to 0 when omitted; every voltage port must
        be given.
    t_end, dt:
        Horizon and fixed step (s).  ``t_end`` must exceed ``dt``.
    observe:
        Node names to record; defaults to all nodes.

    Returns
    -------
    TransientResult
        Voltages at the observed nodes on the uniform grid.
    """
    netlist.validate()
    if dt <= 0 or t_end <= dt:
        raise SolverError(f"bad time base: t_end={t_end!r}, dt={dt!r}")

    free_nodes = netlist.free_nodes
    free_index = {name: i for i, name in enumerate(free_nodes)}
    pinned = netlist.pinned_nodes
    input_index = {name: i for i, name in enumerate(netlist.input_names)}
    pinned_input = {p.node: input_index[p.name] for p in netlist.voltage_ports}

    observe = list(observe) if observe is not None else list(netlist.nodes)
    for node in observe:
        if node not in free_index and node not in pinned:
            raise SolverError(f"cannot observe unknown node {node!r}")

    nv = len(free_nodes)
    nl = len(netlist.inductors)
    n_unknowns = nv + nl

    times = np.arange(0.0, t_end + 0.5 * dt, dt)
    u = _evaluate_inputs(netlist, inputs, times)

    lhs = np.zeros((n_unknowns, n_unknowns))
    # Input coupling of the KCL rows (pinned-node conductive paths and
    # load draws): rhs += u_coupling @ u[n].
    u_coupling = np.zeros((n_unknowns, u.shape[1]))

    def stamp_conductance(a: str, b: str, conductance: float) -> None:
        for this, other in ((a, b), (b, a)):
            if this == GROUND or this in pinned:
                continue
            row = free_index[this]
            lhs[row, row] += conductance
            if other == GROUND:
                continue
            if other in pinned:
                u_coupling[row, pinned_input[other]] += conductance
            else:
                lhs[row, free_index[other]] -= conductance

    for res in netlist.resistors:
        stamp_conductance(res.a, res.b, 1.0 / res.ohms)

    # Capacitor companion: series ESR-C branch to ground.
    caps = [netlist.capacitor_at(node) for node in free_nodes]
    cap_geq = np.array(
        [1.0 / (cap.esr + dt / (2.0 * cap.farads)) for cap in caps]
    )
    cap_hist_gain = np.array([dt / (2.0 * cap.farads) for cap in caps])
    for i, geq in enumerate(cap_geq):
        lhs[i, i] += geq

    for port in netlist.current_ports:
        u_coupling[free_index[port.node], input_index[port.name]] -= 1.0

    # Inductor companion rows.  The endpoint voltages of every branch
    # are linear maps, v_a − v_b = incidence @ v + incidence_u @ u; the
    # same incidence carries each branch current into the KCL rows.
    incidence = np.zeros((nl, nv))
    incidence_u = np.zeros((nl, u.shape[1]))
    for k, ind in enumerate(netlist.inductors):
        for endpoint, sign in ((ind.a, 1.0), (ind.b, -1.0)):
            if endpoint == GROUND:
                continue
            if endpoint in pinned:
                incidence_u[k, pinned_input[endpoint]] += sign
            else:
                incidence[k, free_index[endpoint]] += sign
    ind_l = np.array([ind.henries for ind in netlist.inductors])
    ind_r = np.array([ind.esr for ind in netlist.inductors])
    beta_l = dt / (2.0 * ind_l) if nl else np.zeros(0)
    lhs[nv:, nv:] += np.diag(1.0 + beta_l * ind_r)
    lhs[nv:, :nv] -= beta_l[:, None] * incidence
    u_coupling[nv:] += beta_l[:, None] * incidence_u
    lhs[:nv, nv:] += incidence.T

    try:
        lu = lu_factor(lhs)
    except ValueError as exc:  # pragma: no cover - defensive
        raise SolverError("transient system could not be factorized") from exc

    # The state is (capacitor plate voltages, capacitor branch currents,
    # node voltages, inductor currents), one column per state vector.
    def step(
        state: np.ndarray, u_now: np.ndarray, u_prev: np.ndarray
    ) -> np.ndarray:
        """One trapezoidal step of the companion models, applied to
        every column of *state* with the matching input columns."""
        x_cap, i_cap, v_prev, i_l = np.split(state, [nv, 2 * nv, 3 * nv])
        rhs = u_coupling @ u_now
        # Capacitor history current sources (entering the node).
        rhs[:nv] += cap_geq[:, None] * (
            x_cap + cap_hist_gain[:, None] * i_cap
        )
        # Inductor history (adds to the current-step source coupling
        # already present in the row from u_coupling).
        keep = (1.0 - beta_l * ind_r)[:, None]
        rhs[nv:] += keep * i_l + beta_l[:, None] * (
            incidence @ v_prev + incidence_u @ u_prev
        )
        solution = lu_solve(lu, rhs)
        v_now = solution[:nv]
        # Update capacitor branch state.
        i_cap_now = cap_geq[:, None] * (
            v_now - x_cap - cap_hist_gain[:, None] * i_cap
        )
        x_now = x_cap + cap_hist_gain[:, None] * (i_cap_now + i_cap)
        return np.concatenate([x_now, i_cap_now, solution])

    # The recurrence is linear with constant matrices, so one step is
    # ``state_n = transition @ state_{n−1} + from_now @ u_n
    # + from_prev @ u_{n−1}``; all three maps come from stepping unit
    # columns through the same LU once.
    n_state, n_in = 3 * nv + nl, u.shape[1]
    transition = step(
        np.eye(n_state), np.zeros((n_in, n_state)), np.zeros((n_in, n_state))
    )
    zeros_state, zeros_in = np.zeros((n_state, n_in)), np.zeros((n_in, n_in))
    from_now = step(zeros_state, np.eye(n_in), zeros_in)
    from_prev = step(zeros_state, zeros_in, np.eye(n_in))

    states = np.zeros((times.size, n_state))
    with np.errstate(over="ignore", invalid="ignore"):
        states[1:] = u[1:] @ from_now.T + u[:-1] @ from_prev.T
        for n in range(1, times.size):
            states[n] += transition @ states[n - 1]
    finite = np.isfinite(states[:, 2 * nv:]).all(axis=1)
    if not finite.all():
        raise SolverError(
            f"transient solution diverged at step {int(np.argmin(finite))}"
        )

    recorded = np.zeros((len(observe), times.size))
    for row, node in enumerate(observe):
        if node in pinned:
            recorded[row] = u[:, pinned_input[node]]
        else:
            recorded[row] = states[:, 2 * nv + free_index[node]]

    return TransientResult(
        times=times,
        voltages={node: recorded[row] for row, node in enumerate(observe)},
    )
