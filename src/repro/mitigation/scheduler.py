"""Noise-aware workload mapping policy (paper §VII-A).

"One can implement a task mapping policy with the objective of
minimizing the worst-case noise.  Then, one can proactively squeeze the
available voltage margin accordingly."

The scheduler measures (once, per workload class) the worst-case noise
of every placement of k copies on the chip, then answers placement
queries from the engine's content-addressed result cache: repeated
study queries — and any other consumer running the same placements —
replay the cached runs instead of re-solving them.  It also quantifies
what the placement bought: the margin saved versus the worst placement,
in %p2p and in volts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.mapping import MappingStudy, enumerate_mappings
from ..engine import SimulationSession
from ..machine.chip import Chip
from ..machine.runner import RunOptions
from ..machine.workload import CurrentProgram

__all__ = ["Placement", "NoiseAwareScheduler"]


@dataclass
class Placement:
    """A placement decision and its measured consequences."""

    cores: tuple[int, ...]
    worst_noise: float
    worst_alternative: float

    @property
    def noise_saved(self) -> float:
        """%p2p points saved versus the adversarial placement."""
        return self.worst_alternative - self.worst_noise


@dataclass
class NoiseAwareScheduler:
    """Placement oracle for one chip and one workload class.

    Parameters
    ----------
    chip:
        The chip to place on.
    program:
        The workload class's compiled electrical behavior.
    options:
        Run options for the placement studies.
    volts_per_p2p_point:
        Conversion from skitter %p2p to voltage margin, used by
        :meth:`margin_saved`.
    session:
        Run session the placement studies execute through (built over
        the process-shared result cache when omitted).
    """

    chip: Chip
    program: CurrentProgram
    options: RunOptions | None = None
    volts_per_p2p_point: float = 0.0016
    session: SimulationSession | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.session is None:
            self.session = SimulationSession(self.chip, self.options)

    def study(self, n_workloads: int) -> MappingStudy:
        """The exhaustive placement study for *n_workloads*; its runs
        are served from the engine cache after the first query."""
        return enumerate_mappings(
            self.chip, self.program, n_workloads
        ).run(self.session)

    def place(self, n_workloads: int) -> Placement:
        """Best placement of *n_workloads* copies of the workload."""
        study = self.study(n_workloads)
        best = study.best
        return Placement(
            cores=best.cores,
            worst_noise=best.worst_noise,
            worst_alternative=study.worst.worst_noise,
        )

    def margin_saved(self, n_workloads: int) -> float:
        """Voltage margin (V) the noise-aware placement saves."""
        placement = self.place(n_workloads)
        return placement.noise_saved * self.volts_per_p2p_point
