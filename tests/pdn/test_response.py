"""Response library tests: sampling, smoothing, lookup semantics."""

import numpy as np
import pytest

from repro.chips import build_chip, get_family
from repro.errors import SolverError
from repro.pdn.netlist import Netlist
from repro.pdn.response import ResponseLibrary
from repro.pdn.state_space import ModalSystem, build_state_space


def small_net():
    net = Netlist("small")
    net.add_voltage_port("vin", "src")
    net.add_inductor("l1", "src", "a", 1e-9, esr=0.02)
    net.add_capacitor("ca", "a", 2e-6, esr=5e-4)
    net.add_resistor("rab", "a", "b", 0.01)
    net.add_capacitor("cb", "b", 1e-6, esr=5e-4)
    net.add_current_port("load_a", "a")
    net.add_current_port("load_b", "b")
    return net


@pytest.fixture(scope="module")
def library():
    return ResponseLibrary(
        small_net(), ports=["load_a", "load_b"], nodes=["a", "b"],
        rise_time=2e-9,
    )


class TestConstruction:
    def test_requires_ports_and_nodes(self):
        with pytest.raises(SolverError):
            ResponseLibrary(small_net(), ports=[], nodes=["a"])

    def test_rejects_bad_rise_time(self):
        with pytest.raises(SolverError):
            ResponseLibrary(small_net(), ports=["load_a"], nodes=["a"], rise_time=0)

    def test_grid_is_sorted_unique(self, library):
        assert np.all(np.diff(library.grid) > 0)

    def test_horizon_covers_slow_modes(self, library):
        modal = ModalSystem(build_state_space(small_net()))
        assert library.horizon >= 5 * modal.slowest_time_constant()


class TestLookups:
    def test_causal_before_zero(self, library):
        values = library.ramp("load_a", "a", np.array([-5e-9, -1e-12]))
        assert np.all(values == 0.0)

    def test_flat_at_dc_beyond_horizon(self, library):
        dc = library.dc("load_a", "a")
        far = library.ramp("load_a", "a", np.array([library.horizon * 3]))
        assert far[0] == pytest.approx(dc, rel=1e-9)

    def test_dc_negative_for_load(self, library):
        # Positive load draw produces a steady droop.
        assert library.dc("load_a", "a") < 0

    def test_ramp_is_smoothed_step(self, library):
        """The ramp response must match the step response convolved with
        the rectangular rise window (checked at the window's end)."""
        t = np.array([50e-9, 200e-9])
        step = library.modal.step_response("load_a", ["a"], t)[0]
        ramp = library.ramp("load_a", "a", t)
        # After many rise times they converge.
        assert ramp[1] == pytest.approx(step[1], rel=0.02)
        # The ramp response at t=0 is 0 (no instant jump).
        assert library.ramp("load_a", "a", np.array([0.0]))[0] == pytest.approx(
            0.0, abs=1e-9
        )

    def test_unknown_pair_raises(self, library):
        with pytest.raises(SolverError):
            library.ramp("load_a", "nope", np.array([0.0]))
        with pytest.raises(SolverError):
            library.dc("nope", "a")


def per_port_step_response(modal, port, nodes, times):
    """A copy of the single-input step response the library once built
    for each port: its own phase matrix per call."""
    sys = modal.system
    j = sys.input_column(port)
    rows = sys.output_rows(nodes)
    times = np.asarray(times, dtype=float)
    x_ss = np.linalg.solve(sys.a, -sys.b[:, j])
    coeff = modal._left @ (-x_ss)
    modes = (sys.pv[rows] @ modal._right) * coeff[None, :]
    y_ss = sys.pv[rows] @ x_ss + sys.qv[rows, j]
    clipped = np.where(times < 0, 0.0, times)
    phases = np.exp(np.outer(modal.eigenvalues, clipped))
    response = y_ss[:, None] + np.real(modes @ phases)
    response[:, times < 0] = 0.0
    return response


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestOnePhaseMatrix:
    """The library evaluates every port against one phase matrix and
    its tables stay bit-identical to a per-port build."""

    @pytest.mark.parametrize("member", [None, "cores4"])
    def test_tables_match_the_per_port_build(self, chip, member):
        if member is not None:
            chip = build_chip(get_family("quick").member(member))
        library = chip.response_library
        for port in library.ports:
            responses = per_port_step_response(
                library.modal, port, library.nodes, library.grid
            )
            for row, node in enumerate(library.nodes):
                step = responses[row]
                key = (port, node)
                assert np.array_equal(
                    bits(library._ramp[key]), bits(library._smooth(step))
                )
                assert bits(library._dc[key]) == bits(step[-1])

    def test_phase_matrix_built_once_per_library(self, chip, monkeypatch):
        """``exp(outer(λ, t))`` is the phase matrix; its outer product
        is built once for all six ports."""
        outers = []
        real_outer = np.outer

        def outer(a, b, *args, **kwargs):
            outers.append(a is chip.modal.eigenvalues)
            return real_outer(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "outer", outer)
        library = ResponseLibrary(
            chip.netlist,
            ports=chip.core_ports,
            nodes=chip.core_nodes,
            rise_time=chip.config.core.ramp_time,
            modal=chip.modal,
        )
        assert len(library.ports) == 6
        assert outers == [True]
