"""Customer-code margin extrapolation (the reference line of Fig. 12).

"The extrapolation assumes: (a) ΔI events are not synchronized ...
and (b) the magnitude of the ΔI events generated on each core is
around ~80% of the maximum possible ΔI.  This is based on the fact
that, historically, maximum power stressmarks showed ~20% higher than
worst case regular user codes."
"""

from __future__ import annotations

from ..engine import SimulationSession
from ..errors import ExperimentError
from ..machine.chip import Chip
from ..machine.runner import RunOptions
from ..machine.workload import CurrentProgram
from ..measure.runit import RUnitConfig
from ..measure.vmin import VminResult, plan_vmin_experiment, run_vmin_experiment
from ..plan.spec import RunPlan

__all__ = [
    "customer_program",
    "plan_customer_margin_line",
    "customer_margin_line",
]


def customer_program(
    max_stressmark: CurrentProgram, delta_i_fraction: float = 0.8
) -> CurrentProgram:
    """The worst-case *customer* workload derived from the maximum
    stressmark: ΔI scaled to ``delta_i_fraction``, synchronization
    removed (real programs do not align their power swings).  Shared
    by the executor and the Fig. 12 plan compiler so both address the
    identical run."""
    if not 0.0 < delta_i_fraction <= 1.0:
        raise ExperimentError("delta_i_fraction must be in (0, 1]")
    scaled_high = max_stressmark.i_low + delta_i_fraction * max_stressmark.delta_i
    return CurrentProgram(
        name=f"customer-{int(delta_i_fraction * 100)}pct",
        i_low=max_stressmark.i_low,
        i_high=scaled_high,
        freq_hz=max_stressmark.freq_hz,
        duty=max_stressmark.duty,
        rise_time=max_stressmark.rise_time,
        sync=None,
    )


def plan_customer_margin_line(
    chip: Chip,
    max_stressmark: CurrentProgram,
    delta_i_fraction: float = 0.8,
    options: RunOptions | None = None,
    figure: str | None = None,
) -> RunPlan:
    """The declarative form of :func:`customer_margin_line`."""
    customer = customer_program(max_stressmark, delta_i_fraction)
    return plan_vmin_experiment(
        chip, [customer] * chip.n_cores, options, figure
    )


def customer_margin_line(
    chip: Chip,
    max_stressmark: CurrentProgram,
    delta_i_fraction: float = 0.8,
    options: RunOptions | None = None,
    runit: RUnitConfig | None = None,
    session: SimulationSession | None = None,
) -> VminResult:
    """Available margin for the worst-case *customer* code.

    Derives the customer workload with :func:`customer_program`, then
    runs the Vmin protocol on one copy per core.
    """
    customer = customer_program(max_stressmark, delta_i_fraction)
    return run_vmin_experiment(
        chip, [customer] * chip.n_cores, runit_config=runit,
        options=options, session=session,
    )
