"""Trapezoidal MNA transient engine tests, including cross-validation
against the exact modal solution (the two engines are independent)."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.pdn.netlist import Netlist
from repro.pdn.state_space import ModalSystem, build_state_space

from ..oracles.mna import simulate_transient


def rc_net(r=1.0, c=1e-6, esr=1e-3):
    net = Netlist("rc")
    net.add_voltage_port("vin", "src")
    net.add_resistor("r1", "src", "out", r)
    net.add_capacitor("c1", "out", c, esr=esr)
    net.add_current_port("load", "out")
    return net


def two_stage_net():
    """Source -> RL -> stage1(C) -> RL -> stage2(C), with a load."""
    net = Netlist("two-stage")
    net.add_voltage_port("vin", "src")
    net.add_inductor("l1", "src", "s1", 2e-9, esr=0.02)
    net.add_capacitor("c1", "s1", 5e-6, esr=5e-4)
    net.add_inductor("l2", "s1", "s2", 0.5e-9, esr=0.01)
    net.add_capacitor("c2", "s2", 2e-6, esr=8e-4)
    net.add_current_port("load", "s2")
    return net


class TestBasics:
    def test_rc_step_charging(self):
        r, c = 1.0, 1e-6
        result = simulate_transient(
            rc_net(r=r, c=c, esr=1e-6), {"vin": 1.0}, t_end=5e-6, dt=5e-9,
            observe=["out"],
        )
        tau = r * c
        expected = 1.0 - np.exp(-result.times / tau)
        assert np.allclose(result.voltages["out"], expected, atol=5e-3)

    def test_constant_load_droop(self):
        result = simulate_transient(
            rc_net(r=0.5), {"vin": 1.0, "load": 2.0}, t_end=20e-6, dt=20e-9,
            observe=["out"],
        )
        assert result.voltages["out"][-1] == pytest.approx(0.0, abs=2e-3)

    def test_time_varying_load(self):
        def load(times):
            return np.where(times > 5e-6, 1.0, 0.0)

        result = simulate_transient(
            rc_net(r=0.5), {"vin": 1.0, "load": load}, t_end=30e-6, dt=10e-9,
            observe=["out"],
        )
        # Before the step: charged to vin.  After: droops by I*R.
        mid = result.voltages["out"][result.times < 4.9e-6][-1]
        end = result.voltages["out"][-1]
        assert mid == pytest.approx(1.0, abs=5e-3)
        assert end == pytest.approx(0.5, abs=5e-3)

    def test_peak_to_peak_helper(self):
        result = simulate_transient(
            rc_net(), {"vin": 1.0}, t_end=5e-6, dt=5e-9, observe=["out"]
        )
        assert result.peak_to_peak("out") == pytest.approx(
            result.voltages["out"].max() - result.voltages["out"].min()
        )
        with pytest.raises(SolverError):
            result.peak_to_peak("out", after=1.0)


class TestValidationErrors:
    def test_missing_voltage_port_value(self):
        with pytest.raises(SolverError, match="needs a supplied value"):
            simulate_transient(rc_net(), {}, t_end=1e-6, dt=1e-9)

    def test_unknown_input_rejected(self):
        with pytest.raises(SolverError, match="unknown input"):
            simulate_transient(
                rc_net(), {"vin": 1.0, "bogus": 1.0}, t_end=1e-6, dt=1e-9
            )

    def test_bad_timebase_rejected(self):
        with pytest.raises(SolverError, match="time base"):
            simulate_transient(rc_net(), {"vin": 1.0}, t_end=1e-9, dt=1e-6)

    def test_non_finite_solution_names_its_step(self):
        def load(times):
            return np.where(times >= 10e-9, np.inf, 0.0)

        with pytest.raises(SolverError, match="diverged at step 10$"):
            simulate_transient(
                rc_net(), {"vin": 1.0, "load": load}, t_end=1e-7, dt=1e-9
            )

    def test_unknown_observe_node(self):
        with pytest.raises(SolverError, match="unknown node"):
            simulate_transient(
                rc_net(), {"vin": 1.0}, t_end=1e-6, dt=1e-9, observe=["zz"]
            )


class TestCrossValidation:
    """The MNA engine must agree with the exact modal solution."""

    def test_two_stage_load_step(self):
        net = two_stage_net()
        modal = ModalSystem(build_state_space(net))
        result = simulate_transient(
            net, {"vin": 0.0, "load": 1.0}, t_end=4e-6, dt=0.5e-9,
            observe=["s1", "s2"],
        )
        exact = modal.step_response("load", ["s1", "s2"], result.times)
        for row, node in enumerate(["s1", "s2"]):
            scale = max(np.abs(exact[row]).max(), 1e-12)
            # Skip t=0: the modal solution reports the 0+ feedthrough,
            # the discrete engine records the 0- state.
            err = np.abs(result.voltages[node][1:] - exact[row][1:]).max() / scale
            assert err < 0.02, f"{node}: {err}"

    def test_two_stage_source_step(self):
        net = two_stage_net()
        modal = ModalSystem(build_state_space(net))
        result = simulate_transient(
            net, {"vin": 1.0}, t_end=4e-6, dt=0.5e-9, observe=["s2"]
        )
        exact = modal.step_response("vin", ["s2"], result.times)[0]
        err = np.abs(result.voltages["s2"][1:] - exact[1:]).max()
        assert err < 0.02

    def test_chip_netlist_step(self, chip_netlist):
        """The full reference chip: trapezoidal vs modal on a core step."""
        modal = ModalSystem(build_state_space(chip_netlist))
        result = simulate_transient(
            chip_netlist,
            {"vrm": 0.0, "load_core0": 1.0},
            t_end=1.5e-6,
            dt=0.5e-9,
            observe=["core0", "core3"],
        )
        exact = modal.step_response("load_core0", ["core0", "core3"], result.times)
        for row, node in enumerate(["core0", "core3"]):
            scale = np.abs(exact[row]).max()
            err = np.abs(result.voltages[node][1:] - exact[row][1:]).max() / scale
            assert err < 0.05, f"{node}: {err}"
