"""Customer-code margin extrapolation (the reference line of Fig. 12).

"The extrapolation assumes: (a) ΔI events are not synchronized ...
and (b) the magnitude of the ΔI events generated on each core is
around ~80% of the maximum possible ΔI.  This is based on the fact
that, historically, maximum power stressmarks showed ~20% higher than
worst case regular user codes."
"""

from __future__ import annotations

from ..errors import ExperimentError
from ..machine.chip import Chip
from ..machine.workload import CurrentProgram
from ..measure.runit import RUnitConfig
from ..measure.vmin import vmin_experiment
from ..plan.spec import Sweep

__all__ = [
    "customer_program",
    "customer_margin_line",
]


def customer_program(
    max_stressmark: CurrentProgram, delta_i_fraction: float = 0.8
) -> CurrentProgram:
    """The worst-case *customer* workload derived from the maximum
    stressmark: ΔI scaled to ``delta_i_fraction``, synchronization
    removed (real programs do not align their power swings)."""
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


def customer_margin_line(
    chip: Chip,
    max_stressmark: CurrentProgram,
    delta_i_fraction: float = 0.8,
    runit: RUnitConfig | None = None,
) -> Sweep:
    """Available margin for the worst-case *customer* code: the Vmin
    protocol (:func:`~repro.measure.vmin.vmin_experiment`) on one copy
    per core of the :func:`customer_program` workload."""
    customer = customer_program(max_stressmark, delta_i_fraction)
    return vmin_experiment(chip, [customer] * chip.n_cores, runit_config=runit)
