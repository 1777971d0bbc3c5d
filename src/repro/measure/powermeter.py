"""Chip-level power measurement.

Power readings on the platform come from the service element, which
samples current and voltage on the chip's input rails with milliwatt
granularity.  Two properties of real power measurement shape the
paper's methodology and are modeled here:

* readings carry run-to-run noise, so candidate sequences must be
  compared on the same chip under the same conditions ("power
  evaluations have to be done on the same processor with the same
  experimental conditions for a fair comparison");
* power evaluation is slow relative to IPC evaluation — the meter
  integrates over a dwell time.  The model tracks a simulated
  evaluation cost so the search pipeline can report the experimental
  budget it would have consumed on hardware.
"""

from __future__ import annotations

from ..errors import MeasurementError
from ..mbench.program import Program
from ..mbench.target import Target
from ..rng import stream

__all__ = ["PowerMeter"]


class PowerMeter:
    """Input-rail power meter for one core's workload.

    ``noise_sigma`` is the relative 1σ of a single reading;
    ``temperature_drift`` adds a slowly varying chip-state component
    that is common to readings taken close together in time (modeled
    per measurement session).
    """

    def __init__(
        self,
        target: Target,
        seed: int = 0,
        noise_sigma: float = 0.004,
        temperature_drift: float = 0.002,
        dwell_s: float = 5.0,
    ):
        if noise_sigma < 0 or temperature_drift < 0:
            raise MeasurementError("noise parameters cannot be negative")
        if dwell_s <= 0:
            raise MeasurementError("dwell time must be positive")
        self.target = target
        self.seed = seed
        self.noise_sigma = noise_sigma
        self.temperature_drift = temperature_drift
        self.dwell_s = dwell_s
        self.simulated_seconds = 0.0
        self._session_factor = 1.0 + float(
            stream(seed, "powermeter", "session").normal(0.0, temperature_drift)
        ) if temperature_drift > 0 else 1.0

    def measure(self, program: Program, reading_tag: object = 0) -> float:
        """One power reading (W, mW-quantized) of *program* running on
        one core."""
        true_power = self.target.power(program).watts
        rng = stream(self.seed, "powermeter", program.name, reading_tag)
        noise = 1.0 + float(rng.normal(0.0, self.noise_sigma)) if self.noise_sigma else 1.0
        self.simulated_seconds += self.dwell_s
        return round(true_power * noise * self._session_factor, 3)
