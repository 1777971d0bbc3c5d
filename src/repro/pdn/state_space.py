"""Exact state-space formulation of a PDN netlist.

The netlist grammar (every free node carries one ESR'd capacitor;
branches are resistors or series R-L) admits a clean state-space model:

* **states** ``x`` — one capacitor plate voltage per free node followed
  by one current per inductor branch;
* **inputs** ``u`` — load currents (current ports) followed by pinned
  node voltages (voltage ports);
* **node voltages** — algebraic functions of states and inputs,
  ``v = P x + Q u``, obtained by solving the resistive KCL system.

From ``dx/dt = A x + B u`` the library computes exact step responses via
eigendecomposition (:class:`ModalSystem`) and exact frequency responses
``H(jω) = P (jωI − A)^{-1} B + Q`` — no numerical integration involved.
A trapezoidal transient engine (``tests/oracles/mna.py``) cross-checks
it in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SolverError
from .elements import GROUND
from .netlist import Netlist

__all__ = ["StateSpace", "build_state_space", "ModalSystem"]


@dataclass
class StateSpace:
    """Continuous-time LTI model of a PDN netlist.

    Attributes
    ----------
    a, b:
        State dynamics ``dx/dt = a @ x + b @ u``.
    pv, qv:
        Node-voltage read-out ``v = pv @ x + qv @ u`` for **all** nodes
        (free and pinned), ordered per ``node_index``.
    node_index, input_index:
        Name → row/column maps for nodes and inputs.
    state_names:
        Human-readable state labels (``cap:<node>``, ``ind:<name>``).
    """

    a: np.ndarray
    b: np.ndarray
    pv: np.ndarray
    qv: np.ndarray
    node_index: dict[str, int]
    input_index: dict[str, int]
    state_names: list[str] = field(default_factory=list)

    @property
    def order(self) -> int:
        """Number of state variables."""
        return self.a.shape[0]

    def output_rows(self, nodes: list[str]) -> np.ndarray:
        """Row indices into ``pv``/``qv`` for the named *nodes*."""
        try:
            return np.array([self.node_index[n] for n in nodes], dtype=int)
        except KeyError as exc:
            raise SolverError(f"unknown node {exc.args[0]!r}") from exc

    def input_column(self, name: str) -> int:
        """Column index of input *name*."""
        try:
            return self.input_index[name]
        except KeyError as exc:
            raise SolverError(f"unknown input {name!r}") from exc

    def dc_voltages(self, u: np.ndarray) -> np.ndarray:
        """Steady-state node voltages for constant inputs *u*."""
        x_ss = np.linalg.solve(self.a, -self.b @ u)
        return self.pv @ x_ss + self.qv @ u


def build_state_space(netlist: Netlist) -> StateSpace:
    """Derive the :class:`StateSpace` model of *netlist*.

    The netlist is validated first.  Raises
    :class:`~repro.errors.NetlistError` on structural problems and
    :class:`~repro.errors.SolverError` if the resistive KCL system is
    singular (which indicates a floating subnetwork).
    """
    netlist.validate()

    free_nodes = netlist.free_nodes
    all_nodes = netlist.nodes
    pinned = netlist.pinned_nodes
    free_index = {name: i for i, name in enumerate(free_nodes)}
    node_index = {name: i for i, name in enumerate(all_nodes)}
    input_names = netlist.input_names
    input_index = {name: i for i, name in enumerate(input_names)}
    pinned_input = {port.node: input_index[port.name] for port in netlist.voltage_ports}

    nv = len(free_nodes)
    nl = len(netlist.inductors)
    ni = len(input_names)
    caps = [netlist.capacitor_at(node) for node in free_nodes]
    nstates = nv + nl

    # --- algebraic KCL:  G v = Mx x + Mu u  ---------------------------
    g = np.zeros((nv, nv))
    mx = np.zeros((nv, nstates))
    mu = np.zeros((nv, ni))

    def stamp_conductance(a: str, b: str, conductance: float) -> None:
        """Stamp a resistive coupling between endpoints a and b."""
        for this, other in ((a, b), (b, a)):
            if this == GROUND or this in pinned:
                continue
            row = free_index[this]
            g[row, row] += conductance
            if other == GROUND:
                continue
            if other in pinned:
                mu[row, pinned_input[other]] += conductance
            else:
                g[row, free_index[other]] -= conductance

    for res in netlist.resistors:
        stamp_conductance(res.a, res.b, 1.0 / res.ohms)

    for i, cap in enumerate(caps):
        conductance = 1.0 / cap.esr
        g[i, i] += conductance
        mx[i, i] += conductance  # plate voltage state appears on the RHS

    for k, ind in enumerate(netlist.inductors):
        col = nv + k
        # Branch current flows a -> b: it leaves a and enters b.
        if ind.a != GROUND and ind.a not in pinned:
            mx[free_index[ind.a], col] -= 1.0
        if ind.b != GROUND and ind.b not in pinned:
            mx[free_index[ind.b], col] += 1.0

    for port in netlist.current_ports:
        # Positive load value draws current out of the node.
        mu[free_index[port.node], input_index[port.name]] -= 1.0

    try:
        g_inv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise SolverError("resistive KCL system is singular") from exc

    p_free = g_inv @ mx  # free node voltages vs states
    q_free = g_inv @ mu  # free node voltages vs inputs

    # --- voltage read-out rows for every node (free and pinned) -------
    pv = np.zeros((len(all_nodes), nstates))
    qv = np.zeros((len(all_nodes), ni))
    for name, row in node_index.items():
        if name in pinned:
            qv[row, pinned_input[name]] = 1.0
        else:
            pv[row] = p_free[free_index[name]]
            qv[row] = q_free[free_index[name]]

    def voltage_rows(endpoint: str) -> tuple[np.ndarray, np.ndarray]:
        """(state row, input row) expressing the endpoint voltage."""
        if endpoint == GROUND:
            return np.zeros(nstates), np.zeros(ni)
        if endpoint in pinned:
            row = np.zeros(ni)
            row[pinned_input[endpoint]] = 1.0
            return np.zeros(nstates), row
        idx = free_index[endpoint]
        return p_free[idx], q_free[idx]

    # --- state dynamics ------------------------------------------------
    a_mat = np.zeros((nstates, nstates))
    b_mat = np.zeros((nstates, ni))
    state_names: list[str] = []

    for i, (node, cap) in enumerate(zip(free_nodes, caps)):
        state_names.append(f"cap:{node}")
        rate = 1.0 / (cap.farads * cap.esr)
        a_mat[i] = rate * p_free[i]
        a_mat[i, i] -= rate
        b_mat[i] = rate * q_free[i]

    for k, ind in enumerate(netlist.inductors):
        row = nv + k
        state_names.append(f"ind:{ind.name}")
        pa, qa = voltage_rows(ind.a)
        pb, qb = voltage_rows(ind.b)
        a_mat[row] = (pa - pb) / ind.henries
        a_mat[row, row] -= ind.esr / ind.henries
        b_mat[row] = (qa - qb) / ind.henries

    return StateSpace(
        a=a_mat,
        b=b_mat,
        pv=pv,
        qv=qv,
        node_index=node_index,
        input_index=input_index,
        state_names=state_names,
    )


class ModalSystem:
    """Eigendecomposition of a :class:`StateSpace` for exact evaluation.

    Provides closed-form unit **step responses** (zero initial state,
    input stepping 0 → 1 at t = 0) and exact **frequency responses** for
    any (input, node) pair, at arbitrary time/frequency points.
    """

    #: Relative reconstruction error above which the decomposition is
    #: rejected as numerically unreliable.
    _RECONSTRUCTION_TOL = 1e-6

    def __init__(self, system: StateSpace):
        self.system = system
        eigenvalues, right = np.linalg.eig(system.a)
        try:
            left = np.linalg.inv(right)
        except np.linalg.LinAlgError as exc:
            raise SolverError("state matrix is defective (eigenbasis singular)") from exc
        reconstructed = (right * eigenvalues) @ left
        scale = max(np.abs(system.a).max(), 1.0)
        error = np.abs(reconstructed - system.a).max() / scale
        if error > self._RECONSTRUCTION_TOL:
            raise SolverError(
                f"eigendecomposition reconstruction error {error:.2e} "
                f"exceeds tolerance {self._RECONSTRUCTION_TOL:.0e}"
            )
        if np.real(eigenvalues).max() > 1e-9 * scale:
            raise SolverError("network is not passive: unstable eigenvalue found")
        self.eigenvalues = eigenvalues
        self._right = right
        self._left = left

    def step_response(
        self, input_name: str, nodes: list[str], times: np.ndarray
    ) -> np.ndarray:
        """Node voltages (nodes × times) for a unit step on *input_name*.

        Times may be any non-negative array; negative entries return 0
        (response is causal).  The instant resistive feedthrough is
        included for t >= 0.
        """
        return self.step_responses([input_name], nodes, times)[0]

    def step_responses(
        self, input_names: list[str], nodes: list[str], times: np.ndarray
    ) -> list[np.ndarray]:
        """:meth:`step_response` for each of *input_names*, in order.

        The modal phase matrix ``exp(λ·t)`` depends only on *times*, so
        it is built once and each input costs one matrix product."""
        sys = self.system
        columns = [sys.input_column(name) for name in input_names]
        rows = sys.output_rows(nodes)
        times = np.asarray(times, dtype=float)
        negative = times < 0
        clipped = np.where(negative, 0.0, times)
        phases = np.exp(np.outer(self.eigenvalues, clipped))
        observed = sys.pv[rows] @ self._right
        responses = []
        for j in columns:
            x_ss = np.linalg.solve(sys.a, -sys.b[:, j])
            coeff = self._left @ (-x_ss)  # modal coordinates of (x0 - x_ss)
            modes = observed * coeff[None, :]
            y_ss = sys.pv[rows] @ x_ss + sys.qv[rows, j]
            response = y_ss[:, None] + np.real(modes @ phases)
            response[:, negative] = 0.0
            responses.append(response)
        return responses

    def frequency_response(
        self, input_name: str, nodes: list[str], freqs_hz: np.ndarray
    ) -> np.ndarray:
        """Complex transfer H(j2πf) from *input_name* to node voltages,
        shape (nodes × freqs)."""
        sys = self.system
        j = sys.input_column(input_name)
        rows = sys.output_rows(nodes)
        freqs_hz = np.asarray(freqs_hz, dtype=float)

        b_modal = self._left @ sys.b[:, j]
        p_modal = sys.pv[rows] @ self._right
        jw = 2j * np.pi * freqs_hz
        # (jw - lambda_k)^-1 for each mode/frequency.
        denom = jw[None, :] - self.eigenvalues[:, None]
        transfer = p_modal @ (b_modal[:, None] / denom)
        return transfer + sys.qv[rows, j][:, None]

    def slowest_time_constant(self) -> float:
        """Largest time constant (s) of the network, for choosing
        simulation horizons."""
        rates = -np.real(self.eigenvalues)
        rates = rates[rates > 0]
        if rates.size == 0:
            raise SolverError("network has no decaying modes")
        return float(1.0 / rates.min())
