"""Noise-aware workload mapping (paper Figures 14/15, §VII-A).

The worst-case noise of running k identical stressmarks depends on
*which* cores they land on: packing them into one noise cluster is
worse than spreading them across the clusters.  A noise-aware mapper
can therefore shave worst-case noise — and with it, guard-band — by
choosing placements.

:func:`enumerate_mappings` and :func:`mapping_extremes` return
:class:`~repro.plan.spec.Sweep` declarations: the campaign planner
reads their runs and a session executes them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import ExperimentError
from ..machine.chip import Chip
from ..machine.workload import CurrentProgram, idle_program
from ..plan.spec import Sweep

__all__ = [
    "MappingOutcome",
    "MappingStudy",
    "enumerate_mappings",
    "mapping_extremes",
]


@dataclass
class MappingOutcome:
    """One placement of k workloads and its worst-case noise."""

    cores: tuple[int, ...]
    p2p_by_core: list[float]

    @property
    def worst_noise(self) -> float:
        return max(self.p2p_by_core)

    @property
    def worst_core(self) -> int:
        return self.p2p_by_core.index(max(self.p2p_by_core))


@dataclass
class MappingStudy:
    """All placements of k identical workloads on the chip."""

    n_workloads: int
    outcomes: list[MappingOutcome]

    @property
    def best(self) -> MappingOutcome:
        """The placement minimizing worst-case noise (noise-aware pick)."""
        return min(self.outcomes, key=lambda o: (o.worst_noise, o.cores))

    @property
    def worst(self) -> MappingOutcome:
        """The placement maximizing worst-case noise (adversarial pick)."""
        return max(self.outcomes, key=lambda o: (o.worst_noise, o.cores))

    @property
    def reduction_opportunity(self) -> float:
        """%p2p points a noise-aware mapper saves over the worst pick."""
        return self.worst.worst_noise - self.best.worst_noise


def enumerate_mappings(
    chip: Chip,
    program: CurrentProgram,
    n_workloads: int,
    idle_current: float | None = None,
) -> Sweep:
    """Every placement of *n_workloads* copies of *program*.

    ``idle_current`` feeds the unoccupied cores; defaults to the chip's
    static current.  The C(n, k) placements are one batch (cached
    placements replay; misses fan out over the session executor —
    ``--jobs N`` on the Fig. 14/15 sweeps lands here); the value is
    the :class:`MappingStudy`.
    """
    n_cores = chip.n_cores
    if not 0 <= n_workloads <= n_cores:
        raise ExperimentError(
            f"cannot place {n_workloads} workloads on {n_cores} cores"
        )
    if idle_current is None:
        idle_current = chip.config.core.static_power_w / chip.vnom
    idle = idle_program(idle_current)
    placements = list(itertools.combinations(range(n_cores), n_workloads))

    def finish(results: list) -> MappingStudy:
        return MappingStudy(
            n_workloads=n_workloads,
            outcomes=[
                MappingOutcome(cores=cores, p2p_by_core=result.p2p_by_core)
                for cores, result in zip(placements, results)
            ],
        )

    return Sweep(
        mappings=tuple(
            tuple(program if i in cores else idle for i in range(n_cores))
            for cores in placements
        ),
        tags=tuple(("mapping", cores) for cores in placements),
        finish=finish,
    )


def mapping_extremes(
    chip: Chip,
    program: CurrentProgram,
    workload_counts: list[int],
) -> Sweep:
    """Best/worst mapping study per workload count (Figure 15): every
    count's placements in one batch, valued as ``{count: study}``."""
    studies = [enumerate_mappings(chip, program, k) for k in workload_counts]

    def finish(results: list) -> dict[int, MappingStudy]:
        valued = {}
        cursor = 0
        for k, study in zip(workload_counts, studies):
            end = cursor + len(study.mappings)
            valued[k] = study.finish(results[cursor:end])
            cursor = end
        return valued

    return Sweep(
        mappings=tuple(m for study in studies for m in study.mappings),
        tags=tuple(t for study in studies for t in study.tags),
        finish=finish,
    )
