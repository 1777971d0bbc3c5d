"""Sweep declarations for the paper's §V sensitivity studies.

Each study function returns a :class:`~repro.plan.spec.Sweep`: the
exact (mappings, tags) workload of the study plus how its results
reduce to the study's value.  The campaign planner reads the runs
(:meth:`~repro.plan.spec.Sweep.plan`) and a driver executes the same
declaration through a session (:meth:`~repro.plan.spec.Sweep.run`),
so a compiled plan's fingerprints are the executed ones by
construction — the property that makes pre-execution dedup counts
exact.

Partial sweeps: the three sweeps here are named (``fsweep``,
``missweep``, ``disweep``).  On a session with
``on_failure="collect"`` a shmoo-style campaign keeps the points that
worked: runs that exhausted their retry budget are dropped from the
returned dataset instead of aborting the sweep, each drop is counted
(``engine.points_dropped``) and written to the event log
(``point.dropped``), and the experiment layer marks the dropped count
in the exported results.  A sweep left with nothing to report (no
frequency or mapping solved, a misalignment level without a solved
assignment) raises :class:`~repro.errors.ExecutionError` naming
itself and its failed runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.generator import StressmarkGenerator
from ..core.sync import offset_assignments, spread_offsets
from ..errors import ExecutionError, ExperimentError
from ..machine.chip import Chip
from ..machine.workload import idle_program
from ..plan.spec import Sweep

__all__ = [
    "FrequencySweepPoint",
    "default_frequency_grid",
    "sweep_stimulus_frequency",
    "sweep_misalignment",
    "sweep_delta_i_mappings",
    "DeltaIMappingPoint",
]


@dataclass
class FrequencySweepPoint:
    """One stimulus frequency of a sweep: requested/achieved frequency
    and the per-core noise readings."""

    freq_hz: float
    achieved_freq_hz: float
    p2p_by_core: list[float]

    @property
    def max_p2p(self) -> float:
        return max(self.p2p_by_core)


def default_frequency_grid(
    f_min: float = 3e3, f_max: float = 1e8, points_per_decade: int = 6
) -> list[float]:
    """Log-spaced stimulus frequency grid covering both resonant bands."""
    if f_min <= 0 or f_max <= f_min:
        raise ExperimentError("bad frequency grid bounds")
    decades = np.log10(f_max / f_min)
    n = max(int(round(decades * points_per_decade)) + 1, 2)
    return [float(f) for f in np.logspace(np.log10(f_min), np.log10(f_max), n)]


def sweep_stimulus_frequency(
    generator: StressmarkGenerator,
    chip: Chip,
    frequencies: list[float],
    synchronize: bool,
    n_events: int = 1000,
) -> Sweep:
    """One copy of the max dI/dt stressmark per core at each stimulus
    frequency (paper Figures 7a and 9).

    All frequency points are independent, so they execute as one batch
    — cached points replay, the rest fan out over the session
    executor.  The value is one :class:`FrequencySweepPoint` per
    frequency that solved.
    """
    marks = [
        generator.max_didt(
            freq_hz=freq, synchronize=synchronize, n_events=n_events
        )
        for freq in frequencies
    ]

    def finish(results: list) -> list[FrequencySweepPoint]:
        points = [
            FrequencySweepPoint(
                freq_hz=freq,
                achieved_freq_hz=mark.achieved_freq_hz,
                p2p_by_core=result.p2p_by_core,
            )
            for freq, mark, result in zip(frequencies, marks, results)
            if result is not None
        ]
        if not points:
            raise ExecutionError("no frequency solved")
        return points

    return Sweep(
        mappings=tuple(
            (mark.current_program(),) * chip.n_cores for mark in marks
        ),
        tags=tuple(("fsweep", synchronize, freq) for freq in frequencies),
        finish=finish,
        name="fsweep",
    )


def sweep_misalignment(
    generator: StressmarkGenerator,
    chip: Chip,
    max_misalignments: list[float],
    freq_hz: float = 2.6e6,
    assignments_sample: int = 6,
    n_events: int = 1000,
) -> Sweep:
    """Noise versus maximum allowed misalignment (paper Figure 10).

    For each maximum misalignment, stressmarks are spread evenly over
    the 62.5 ns-gridded offsets and every sampled offset→core assignment
    is executed; the value maps each misalignment to the per-core noise
    averaged over its assignments.  The assignments of every
    misalignment level form one batch.  Under collect mode a level
    averages over the assignments that solved; a level whose every
    assignment failed leaves the study without that level, which
    raises.
    """
    n_cores = chip.n_cores
    mappings: list[tuple] = []
    tags: list[object] = []
    batches: list[tuple[float, int]] = []  # (misalignment, n_assignments)
    for max_mis in max_misalignments:
        offsets = spread_offsets(n_cores, max_mis)
        marks = {
            offset: generator.max_didt(
                freq_hz=freq_hz,
                synchronize=True,
                misalignment=offset,
                n_events=n_events,
            ).current_program()
            for offset in set(offsets)
        }
        count = 0
        for assignment in offset_assignments(
            offsets, n_cores=n_cores, sample=assignments_sample,
            seed=generator.seed,
        ):
            mappings.append(tuple(marks[offset] for offset in assignment))
            tags.append(("missweep", max_mis, count))
            count += 1
        batches.append((max_mis, count))

    def finish(results: list) -> dict[float, list[float]]:
        averaged: dict[float, list[float]] = {}
        cursor = 0
        for max_mis, count in batches:
            batch = results[cursor:cursor + count]
            solved = [result for result in batch if result is not None]
            cursor += count
            if not solved:
                raise ExecutionError(
                    f"misalignment {max_mis * 1e9:.1f} ns lost every "
                    "assignment"
                )
            accumulator = np.zeros(n_cores)
            for result in solved:
                accumulator += np.array(result.p2p_by_core)
            averaged[max_mis] = list(accumulator / len(solved))
        return averaged

    return Sweep(tuple(mappings), tuple(tags), finish, name="missweep")


@dataclass
class DeltaIMappingPoint:
    """One workload mapping of the ΔI study (paper Figure 11).

    ``placement[core]`` is the workload level on that core (``"max"``,
    ``"medium"`` or ``"idle"``); ``distribution`` is the (#max, #medium)
    pair; ``delta_i_pct`` the percentage of the maximum chip ΔI this
    mapping can generate.
    """

    mapping_id: int
    placement: tuple[str, ...]
    distribution: tuple[int, int]
    delta_i_pct: float
    p2p_by_core: list[float]
    active_cores: int

    @property
    def max_p2p(self) -> float:
        return max(self.p2p_by_core)


def _distinct_placements(
    n_max: int, n_med: int, cap: int, seed: int, n_cores: int
) -> list[tuple[str, ...]]:
    """Distinct workload placements of a (max, medium) distribution on
    the chip's cores; capped by a deterministic sample when there are
    many."""
    import itertools

    base = ["max"] * n_max + ["medium"] * n_med + ["idle"] * (
        n_cores - n_max - n_med
    )
    distinct = sorted(set(itertools.permutations(base)))
    if len(distinct) <= cap:
        return distinct
    rng = np.random.default_rng(seed)
    indices = sorted(rng.choice(len(distinct), size=cap, replace=False))
    return [distinct[int(i)] for i in indices]


def sweep_delta_i_mappings(
    generator: StressmarkGenerator,
    chip: Chip,
    freq_hz: float = 2.6e6,
    workload_filter: Callable[[tuple[int, int]], bool] | None = None,
    placements_per_distribution: int = 4,
) -> Sweep:
    """Workload→core mappings of {idle, medium, max} dI/dt.

    Following §V-D: the medium stressmark generates half the ΔI of the
    maximum one and everything is synchronized to maximize noise.  For
    each (#max, #medium) distribution, up to
    ``placements_per_distribution`` distinct core placements are
    executed (the paper runs all of them; the deterministic sample keeps
    the dataset rich enough for the correlation and mapping studies at a
    fraction of the runs).  The whole dataset is one batch; Figures
    11a, 11b and 13a declare the identical batch and so share its
    cached runs.  Under collect mode the dataset keeps the mappings
    that solved, numbered contiguously — a fault-degraded shmoo
    campaign still yields its partial scatter.
    """
    n_cores = chip.n_cores
    max_prog = generator.max_didt(
        freq_hz=freq_hz, synchronize=True
    ).current_program()
    med_prog = generator.medium_didt(
        freq_hz=freq_hz, synchronize=True
    ).current_program()
    idle = idle_program(generator.target.idle_current)
    by_level = {"max": max_prog, "medium": med_prog, "idle": idle}
    full_delta = n_cores * max_prog.delta_i

    planned: list[tuple[tuple[str, ...], tuple[int, int], float]] = []
    for n_max in range(0, n_cores + 1):
        for n_med in range(0, n_cores + 1 - n_max):
            distribution = (n_max, n_med)
            if workload_filter is not None and not workload_filter(distribution):
                continue
            placements = _distinct_placements(
                n_max, n_med, placements_per_distribution, generator.seed,
                n_cores,
            )
            delta = n_max * max_prog.delta_i + n_med * med_prog.delta_i
            for placement in placements:
                planned.append((placement, distribution, delta))

    def finish(results: list) -> list[DeltaIMappingPoint]:
        solved = [
            (entry, result)
            for entry, result in zip(planned, results)
            if result is not None
        ]
        if not solved:
            raise ExecutionError("no mapping solved")
        return [
            DeltaIMappingPoint(
                mapping_id=mapping_id,
                placement=placement,
                distribution=distribution,
                delta_i_pct=100.0 * delta / full_delta,
                p2p_by_core=result.p2p_by_core,
                active_cores=sum(distribution),
            )
            for mapping_id, ((placement, distribution, delta), result)
            in enumerate(solved)
        ]

    return Sweep(
        mappings=tuple(
            tuple(by_level[level] for level in placement)
            for placement, _, _ in planned
        ),
        tags=tuple(("disweep", placement) for placement, _, _ in planned),
        finish=finish,
        name="disweep",
    )
