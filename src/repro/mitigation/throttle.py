"""Global ΔI throttle — the "globally monitor/reduce noise" mechanism.

The sensitivity summary (§V-F) concludes that "any mechanism
implemented to reduce the noise should be implemented on a chip-wide
basis", because small per-core ΔI events aligned across all cores beat
large events on a few cores.  The paper notes the next-generation chip
would carry such a mechanism.

This module models it: a monitor computes the chip-wide coherent ΔI a
mapping can generate (the same sliding-window metric the skitter
model uses); when it exceeds a budget, every swinging core's ΔI is
derated by a common factor — electrically, activity ramps are stretched
or capped (pipeline throttling), which costs throughput in proportion.
The evaluation reports the noise reduction bought per percent of
throughput given up.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import SimulationSession
from ..errors import ExperimentError
from ..machine.chip import Chip
from ..machine.runner import RunOptions, RunResult
from ..machine.workload import CurrentProgram

__all__ = ["GlobalDidtThrottle", "ThrottleOutcome"]


@dataclass
class ThrottleOutcome:
    """Effect of the throttle on one mapping."""

    baseline: RunResult
    throttled: RunResult
    derate_factor: float
    throughput_cost: float

    @property
    def noise_reduction(self) -> float:
        """%p2p points removed."""
        return self.baseline.max_p2p - self.throttled.max_p2p


@dataclass
class GlobalDidtThrottle:
    """Chip-wide coherent-ΔI budget enforcement.

    Parameters
    ----------
    chip:
        The monitored chip (its coupling weights define coherence).
    budget_amps:
        Maximum worst-case coherent ΔI allowed at any core.
    throughput_per_derate:
        Throughput lost per unit of (1 − derate): derating the power
        swing by 30 % with the default of 0.5 costs 15 % throughput —
        throttling stretches activity ramps rather than stopping work.
    """

    chip: Chip
    budget_amps: float
    throughput_per_derate: float = 0.5

    def __post_init__(self) -> None:
        if self.budget_amps <= 0:
            raise ExperimentError("budget must be positive")
        if not 0.0 <= self.throughput_per_derate <= 1.0:
            raise ExperimentError("throughput_per_derate must be in [0, 1]")

    # ------------------------------------------------------------------
    def worst_coherent_delta_i(
        self, mapping: list[CurrentProgram | None]
    ) -> float:
        """Worst-case coherent ΔI any core could observe if every
        swinging core's events aligned (the monitor's planning bound)."""
        n_cores = self.chip.n_cores
        if len(mapping) != n_cores:
            raise ExperimentError(f"mapping must cover all {n_cores} cores")
        worst = 0.0
        for observer in range(n_cores):
            total = 0.0
            for core, program in enumerate(mapping):
                if program is None or program.is_steady:
                    continue
                total += program.delta_i * self.chip.coupling_weight(observer, core)
            worst = max(worst, total)
        return worst

    def required_derate(self, mapping: list[CurrentProgram | None]) -> float:
        """Common ΔI derate factor (≤ 1) keeping the mapping within
        budget."""
        worst = self.worst_coherent_delta_i(mapping)
        if worst <= self.budget_amps:
            return 1.0
        return self.budget_amps / worst

    def apply(
        self, mapping: list[CurrentProgram | None], derate: float
    ) -> list[CurrentProgram | None]:
        """Derate every swinging program's high level by *derate*."""
        if not 0.0 < derate <= 1.0:
            raise ExperimentError("derate must be in (0, 1]")
        throttled: list[CurrentProgram | None] = []
        for program in mapping:
            if program is None or program.is_steady or derate == 1.0:
                throttled.append(program)
                continue
            throttled.append(
                CurrentProgram(
                    name=f"{program.name}+throttled",
                    i_low=program.i_low,
                    i_high=program.i_low + derate * program.delta_i,
                    freq_hz=program.freq_hz,
                    duty=program.duty,
                    rise_time=program.rise_time,
                    sync=program.sync,
                )
            )
        return throttled

    def evaluate(
        self,
        mapping: list[CurrentProgram | None],
        options: RunOptions | None = None,
        session: SimulationSession | None = None,
    ) -> ThrottleOutcome:
        """Measure the throttle's noise/throughput trade on *mapping*;
        both runs execute through the engine session (shared result
        cache unless a private session is passed)."""
        derate = self.required_derate(mapping)
        session = session or SimulationSession(self.chip, options)
        throttled_mapping = self.apply(mapping, derate)
        baseline, throttled = session.run_many(
            [mapping, throttled_mapping],
            tags=["throttle-off", "throttle-on"],
        )
        cost = self.throughput_per_derate * (1.0 - derate)
        return ThrottleOutcome(
            baseline=baseline,
            throttled=throttled,
            derate_factor=derate,
            throughput_cost=cost,
        )
