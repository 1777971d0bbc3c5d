"""The Vmin experiment: find the voltage margin by undervolting to
first failure.

Protocol, as on the platform: starting from nominal, the operating
voltage is lowered in 0.5 % steps (with a two-minute dwell per step on
hardware — tracked here as simulated turnaround time) until the R-Unit
reports the first error; the system then reboots.  The *available
margin* is the bias reduction that was survived.

Under the linear PDN, scaling the VRM setpoint by a bias ``b`` scales
the whole waveform: node voltages at bias ``b`` are
``b * vnom + (v(t) - vnom)`` — the droops are set by the load currents,
which do not shrink with the supply (slightly pessimistic: on silicon
the current would *grow* as V drops for constant power, making low-bias
noise worse; the protocol and ordering are unaffected).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MeasurementError
from ..machine.chip import Chip
from ..machine.runner import RunResult
from ..machine.system import VOLTAGE_STEP, ServiceElement
from ..machine.workload import CurrentProgram
from ..plan.spec import Sweep
from .runit import RUnit, RUnitConfig

__all__ = ["VminResult", "vmin_experiment"]

#: The run tag every Vmin experiment executes under.
VMIN_RUN_TAG = "vmin"

#: Hardware dwell per voltage step (the paper: 0.5 % every two minutes).
DWELL_MINUTES_PER_STEP = 2.0


@dataclass
class VminResult:
    """Outcome of one Vmin experiment.

    Attributes
    ----------
    margin_frac:
        Available margin: fraction of nominal voltage removed before
        the first failure (e.g. 0.035 = 3.5 %).
    fail_bias:
        Bias at which the first error occurred.
    steps_survived:
        Number of 0.5 % steps survived.
    simulated_minutes:
        Hardware turnaround this experiment would have consumed.
    worst_vmin_nominal:
        Deepest instantaneous voltage at nominal bias (V).
    """

    margin_frac: float
    fail_bias: float
    steps_survived: int
    simulated_minutes: float
    worst_vmin_nominal: float


def vmin_experiment(
    chip: Chip,
    mapping: list[CurrentProgram | None],
    runit_config: RUnitConfig | None = None,
    max_steps: int = 40,
) -> Sweep:
    """Undervolt in 0.5 % steps until the R-Unit sees the first error.

    The workload's noise waveform is one nominal-bias run (through the
    engine session, so a mapping another study already solved replays
    from the result cache); each bias step rescales the supply
    component, exactly as the physical experiment holds the workload
    fixed while walking the VRM setpoint.  The value is the
    :class:`VminResult`.
    """
    if max_steps < 1:
        raise MeasurementError("need at least one undervolt step")
    return Sweep(
        mappings=(tuple(mapping),),
        tags=(VMIN_RUN_TAG,),
        finish=lambda results: _undervolt(
            chip, mapping, results[0], runit_config, max_steps
        ),
    )


def _undervolt(
    chip: Chip,
    mapping: list[CurrentProgram | None],
    result: RunResult,
    runit_config: RUnitConfig | None,
    max_steps: int,
) -> VminResult:
    """The undervolting walk over one nominal-bias run's waveform."""
    worst_nominal = result.worst_vmin
    droop_below_nominal = chip.vnom - worst_nominal
    if droop_below_nominal < 0:
        raise MeasurementError("waveform never drops below nominal; check loads")

    service = ServiceElement(chip)
    runit = RUnit(runit_config or RUnitConfig(), chip.vnom)
    service.reset_voltage()

    steps = 0
    while steps < max_steps:
        v_worst = service.bias * chip.vnom - droop_below_nominal
        if runit.check(v_worst):
            break
        steps += 1
        service.step_down()
    else:
        # Name the chip, the workload and the final operating point:
        # near-margin debugging means figuring out *which* experiment
        # of a multi-chip, multi-workload campaign never failed.
        workload = ",".join(sorted(
            {program.name for program in mapping if program is not None}
        )) or "all-idle"
        raise MeasurementError(
            f"vmin search on chip {chip.chip_id} (workload "
            f"{workload!r}): no failure within {max_steps} bias steps "
            f"(final bias {service.bias:.4f}, worst instantaneous "
            f"vmin at that bias "
            f"{service.bias * chip.vnom - droop_below_nominal:.4f} V, "
            f"R-Unit threshold {runit.v_fail:.4f} V); the threshold "
            f"is not reachable for this workload"
        )

    fail_bias = service.bias
    # Margin available = bias removed before the failing step.
    margin = (steps - 1) * VOLTAGE_STEP if steps > 0 else 0.0
    service.reset_voltage()
    return VminResult(
        margin_frac=margin,
        fail_bias=fail_bias,
        steps_survived=max(steps - 1, 0),
        simulated_minutes=steps * DWELL_MINUTES_PER_STEP,
        worst_vmin_nominal=worst_nominal,
    )
