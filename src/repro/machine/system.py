"""Service element: platform voltage control.

The evaluation platform's management console controls chip voltage in
0.5 % steps of nominal.  :class:`ServiceElement` models that control
surface; the Vmin experiment (:mod:`repro.measure.vmin`) drives it.
(Its milliwatt power monitoring is :class:`~repro.measure.PowerMeter`.)
"""

from __future__ import annotations

from ..errors import ConfigError
from .chip import Chip

__all__ = ["ServiceElement", "VOLTAGE_STEP"]

#: Voltage control granularity: 0.5 % of nominal.
VOLTAGE_STEP = 0.005


class ServiceElement:
    """Voltage-control console attached to one chip."""

    def __init__(self, chip: Chip):
        self.chip = chip
        self._bias_steps = 0  # signed count of 0.5 % steps from nominal

    # -- voltage control --------------------------------------------------
    @property
    def bias(self) -> float:
        """Current multiplicative voltage bias (1.0 = nominal)."""
        return 1.0 + self._bias_steps * VOLTAGE_STEP

    def set_bias_steps(self, steps: int) -> None:
        """Set the bias in whole 0.5 % steps (negative = undervolt)."""
        if not isinstance(steps, int):
            raise ConfigError("bias steps must be a whole number of 0.5% steps")
        if steps < -60 or steps > 20:
            raise ConfigError(f"bias of {steps} steps is outside the safe range")
        self._bias_steps = steps

    def step_down(self) -> float:
        """Lower the voltage by one step; returns the new bias."""
        self.set_bias_steps(self._bias_steps - 1)
        return self.bias

    def reset_voltage(self) -> None:
        """Return to nominal voltage (after a failure/reboot)."""
        self._bias_steps = 0
