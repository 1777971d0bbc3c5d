"""Time-of-day (TOD) clock facility.

The evaluation platform provides a global 64-bit TOD register shared by
all cores.  The paper's deterministic multi-core synchronization spins
until selected low-order bits of the TOD are zero — which happens every
4 ms — and programs misalignment by requiring a different low-bit
pattern, in steps of 62.5 ns.

The model exposes exactly those affordances: the step size, the sync
interval, tick/time conversion, and the spin-exit computation used by
the stressmark synchronization code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["TOD_STEP", "SYNC_INTERVAL", "TodClock"]

#: Granularity of programmable alignment (s): one low-order TOD step.
TOD_STEP = 62.5e-9

#: Interval at which the sync spin-loop exit condition recurs (s).
SYNC_INTERVAL = 4e-3

#: TOD steps between sync points.
STEPS_PER_SYNC = int(round(SYNC_INTERVAL / TOD_STEP))


@dataclass(frozen=True)
class TodClock:
    """The global TOD facility.

    All cores observe the same register, which is what makes
    cycle-accurate cross-core alignment possible at all — the paper
    notes that "without the right architecture support the perfect
    control of alignment would not be possible".
    """

    step: float = TOD_STEP
    sync_interval: float = SYNC_INTERVAL

    def __post_init__(self) -> None:
        if self.step <= 0 or self.sync_interval <= self.step:
            raise ConfigError("TOD step/interval are inconsistent")
        ratio = self.sync_interval / self.step
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError("sync interval must be a whole number of TOD steps")

    def ticks(self, time_s: float) -> int:
        """TOD register value (in steps) at *time_s*."""
        if time_s < 0:
            raise ConfigError("TOD time cannot be negative")
        return int(math.floor(time_s / self.step))

    def quantize_offset(self, offset_s: float) -> float:
        """Snap a programmed misalignment to the TOD granularity.

        Raises when the offset is not representable: the paper's
        methodology is explicitly limited to 62.5 ns granularity.
        """
        steps = offset_s / self.step
        if abs(steps - round(steps)) > 1e-6:
            raise ConfigError(
                f"misalignment {offset_s!r}s is not a multiple of the "
                f"{self.step}s TOD step"
            )
        return round(steps) * self.step
