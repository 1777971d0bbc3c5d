"""Global ΔI-event staggering.

The misalignment study (Figure 10) shows that a single 62.5 ns TOD step
of misalignment removes most of the synchronization effect, and the
paper concludes that "if a mechanism is implemented to avoid the
synchronization of ΔI events happening on different cores, the noise
can be reduced by 2-3x".  This module is that mechanism: given the
workloads mapped to the cores, it assigns programmed TOD offsets that
spread the swing-heavy ones across the alignment window, and evaluates
the noise with and without the plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.sync import spread_offsets
from ..engine import SimulationSession
from ..errors import ExperimentError
from ..machine.chip import N_CORES, Chip
from ..machine.runner import RunOptions, RunResult
from ..machine.tod import TOD_STEP
from ..machine.workload import CurrentProgram

__all__ = [
    "StaggerPlan",
    "plan_stagger",
    "evaluate_stagger",
]


@dataclass
class StaggerPlan:
    """Per-core TOD offsets chosen by the staggerer.

    ``offsets[core]`` is the programmed misalignment for that core's
    sync spin-loop; steady/unsynchronized cores keep 0.0 (there is
    nothing to offset).
    """

    offsets: tuple[float, ...]
    staggered_cores: tuple[int, ...]
    window: float

    def apply(
        self, mapping: list[CurrentProgram | None]
    ) -> list[CurrentProgram | None]:
        """The mapping with the plan's offsets programmed in."""
        adjusted: list[CurrentProgram | None] = []
        for core, program in enumerate(mapping):
            if program is None or program.sync is None:
                adjusted.append(program)
                continue
            adjusted.append(
                program.with_sync(program.sync.with_offset(self.offsets[core]))
            )
        return adjusted


def plan_stagger(
    mapping: list[CurrentProgram | None],
    window_steps: int = 5,
    n_cores: int = N_CORES,
) -> StaggerPlan:
    """Assign offsets to the synchronized, swing-heavy cores.

    Offsets are spread evenly over ``window_steps`` TOD steps (the
    Figure 10 construction); cores without synchronized bursts keep a
    zero offset.  *n_cores* is the target chip's core count (the
    reference chip's six when unspecified).
    """
    if len(mapping) != n_cores:
        raise ExperimentError(f"mapping must cover all {n_cores} cores")
    if window_steps < 1:
        raise ExperimentError("need at least one TOD step of window")
    targets = [
        core
        for core, program in enumerate(mapping)
        if program is not None and program.sync is not None and not program.is_steady
    ]
    offsets = [0.0] * len(mapping)
    if targets:
        spread = spread_offsets(len(targets), window_steps * TOD_STEP)
        for core, offset in zip(targets, spread):
            offsets[core] = offset
    return StaggerPlan(
        offsets=tuple(offsets),
        staggered_cores=tuple(targets),
        window=window_steps * TOD_STEP,
    )


@dataclass
class StaggerOutcome:
    """Noise with and without the stagger plan."""

    baseline: RunResult
    staggered: RunResult
    plan: StaggerPlan

    @property
    def noise_reduction(self) -> float:
        """%p2p points removed by staggering."""
        return self.baseline.max_p2p - self.staggered.max_p2p

    @property
    def reduction_factor(self) -> float:
        """baseline/staggered worst-case noise ratio."""
        if self.staggered.max_p2p == 0:
            return float("inf")
        return self.baseline.max_p2p / self.staggered.max_p2p


def evaluate_stagger(
    chip: Chip,
    mapping: list[CurrentProgram | None],
    window_steps: int = 5,
    options: RunOptions | None = None,
    session: SimulationSession | None = None,
) -> StaggerOutcome:
    """Measure the stagger plan's effect on *mapping* (both runs go
    through the engine session, so a baseline another study already
    solved is replayed from the result cache)."""
    plan = plan_stagger(mapping, window_steps, n_cores=chip.n_cores)
    session = session or SimulationSession(chip, options)
    baseline, staggered = session.run_many(
        [mapping, plan.apply(mapping)],
        tags=["stagger-baseline", "stagger-applied"],
    )
    return StaggerOutcome(baseline=baseline, staggered=staggered, plan=plan)
