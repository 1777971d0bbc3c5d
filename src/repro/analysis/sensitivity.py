"""Sweep drivers for the paper's §V sensitivity studies.

Each sweep is split into a *compiler* and an *executor*: the private
``_compile_*`` helper enumerates the exact (mappings, tags) workload,
the public ``plan_*`` function wraps that enumeration into a
declarative :class:`~repro.plan.spec.RunPlan` (what the campaign
planner dedups), and the public ``sweep_*`` function
executes the same enumeration through a session and post-processes the
results.  Compiler and executor share one code path, so a compiled
plan's fingerprints are byte-identical to what execution computes —
the property that makes pre-execution dedup counts exact.

Partial sweeps: every driver accepts ``on_failure`` (forwarded to the
session it builds).  Under ``"collect"`` a shmoo-style campaign keeps
the points that worked: runs that exhausted their retry budget are
dropped from the returned dataset instead of aborting the sweep, each
drop is counted (``engine.points_dropped``) and written to the event
log (``point.dropped``), and the experiment layer marks the dropped
count in the exported results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.generator import StressmarkGenerator
from ..core.sync import offset_assignments, spread_offsets
from ..engine import SimulationSession
from ..engine.resilience import RetryPolicy, RunFailure
from ..errors import ExperimentError
from ..machine.chip import Chip
from ..machine.runner import RunOptions
from ..machine.workload import CurrentProgram, idle_program
from ..plan.spec import RunPlan

__all__ = [
    "FrequencySweepPoint",
    "default_frequency_grid",
    "plan_stimulus_frequency",
    "sweep_stimulus_frequency",
    "plan_misalignment",
    "sweep_misalignment",
    "plan_delta_i_mappings",
    "sweep_delta_i_mappings",
    "DeltaIMappingPoint",
]


def _drop_failed_points(
    results: list, tags: list, sweep: str, session: SimulationSession
) -> list[int]:
    """Indices of successful results; failed points (RunFailure records
    returned under ``on_failure="collect"``) are accounted and traced.
    """
    kept: list[int] = []
    for index, result in enumerate(results):
        if isinstance(result, RunFailure):
            session.telemetry.increment("engine.points_dropped")
            session.telemetry.emit(
                "point.dropped",
                sweep=sweep,
                run=tags[index],
                error=f"{result.error_type}: {result.message}",
            )
        else:
            kept.append(index)
    return kept


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


def _compile_fsweep(
    generator: StressmarkGenerator,
    frequencies: list[float],
    synchronize: bool,
    n_events: int,
    n_cores: int,
):
    """The exact (mappings, tags, marks) enumeration of the frequency
    sweep — shared by the plan compiler and the executor."""
    marks = [
        generator.max_didt(
            freq_hz=freq, synchronize=synchronize, n_events=n_events
        )
        for freq in frequencies
    ]
    mappings = [[mark.current_program()] * n_cores for mark in marks]
    tags: list[object] = [
        ("fsweep", synchronize, freq) for freq in frequencies
    ]
    return mappings, tags, marks


def plan_stimulus_frequency(
    generator: StressmarkGenerator,
    chip: Chip,
    frequencies: list[float],
    synchronize: bool,
    options: RunOptions | None = None,
    n_events: int = 1000,
    figure: str | None = None,
) -> RunPlan:
    """The declarative form of :func:`sweep_stimulus_frequency`: the
    runs the sweep *would* execute, without executing anything."""
    mappings, tags, _ = _compile_fsweep(
        generator, frequencies, synchronize, n_events, chip.n_cores
    )
    return RunPlan.from_batch(
        chip, mappings, tags, options or RunOptions(), figure
    )


def sweep_stimulus_frequency(
    generator: StressmarkGenerator,
    chip: Chip,
    frequencies: list[float],
    synchronize: bool,
    options: RunOptions | None = None,
    n_events: int = 1000,
    session: SimulationSession | None = None,
    retry: RetryPolicy | None = None,
    on_failure: str | None = None,
) -> list[FrequencySweepPoint]:
    """Run one copy of the max dI/dt stressmark per core at each
    stimulus frequency (paper Figures 7a and 9).

    All frequency points are independent, so they execute as one
    :meth:`~repro.engine.SimulationSession.run_many` batch — cached
    points replay, the rest fan out over the session executor.  With
    ``on_failure="collect"`` the sweep keeps the frequencies that
    solved and drops (and traces) the rest.
    """
    session = session or SimulationSession(
        chip, options, retry=retry, on_failure=on_failure or "raise"
    )
    mappings, tags, marks = _compile_fsweep(
        generator, frequencies, synchronize, n_events, chip.n_cores
    )
    results = session.run_many(mappings, tags)
    kept = _drop_failed_points(results, tags, "fsweep", session)
    return [
        FrequencySweepPoint(
            freq_hz=frequencies[i],
            achieved_freq_hz=marks[i].achieved_freq_hz,
            p2p_by_core=results[i].p2p_by_core,
        )
        for i in kept
    ]


def _compile_missweep(
    generator: StressmarkGenerator,
    max_misalignments: list[float],
    freq_hz: float,
    assignments_sample: int,
    n_events: int,
    n_cores: int,
):
    """The exact (mappings, tags, batches) enumeration of the
    misalignment sweep — shared by the plan compiler and the executor.
    """
    mappings: list[list[CurrentProgram]] = []
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
            mappings.append([marks[offset] for offset in assignment])
            tags.append(("missweep", max_mis, count))
            count += 1
        batches.append((max_mis, count))
    return mappings, tags, batches


def plan_misalignment(
    generator: StressmarkGenerator,
    chip: Chip,
    max_misalignments: list[float],
    freq_hz: float = 2.6e6,
    options: RunOptions | None = None,
    assignments_sample: int = 6,
    n_events: int = 1000,
    figure: str | None = None,
) -> RunPlan:
    """The declarative form of :func:`sweep_misalignment`."""
    mappings, tags, _ = _compile_missweep(
        generator, max_misalignments, freq_hz, assignments_sample, n_events,
        chip.n_cores,
    )
    return RunPlan.from_batch(
        chip, mappings, tags, options or RunOptions(), figure
    )


def sweep_misalignment(
    generator: StressmarkGenerator,
    chip: Chip,
    max_misalignments: list[float],
    freq_hz: float = 2.6e6,
    options: RunOptions | None = None,
    assignments_sample: int = 6,
    n_events: int = 1000,
    session: SimulationSession | None = None,
    retry: RetryPolicy | None = None,
    on_failure: str | None = None,
) -> dict[float, list[float]]:
    """Noise versus maximum allowed misalignment (paper Figure 10).

    For each maximum misalignment, stressmarks are spread evenly over
    the 62.5 ns-gridded offsets and every sampled offset→core assignment
    is executed; returns, per misalignment, the per-core noise averaged
    over assignments.  The assignments of every misalignment level form
    one independent batch executed through the session.  With
    ``on_failure="collect"`` a misalignment level averages over the
    assignments that solved (a level whose every assignment failed is
    dropped entirely).
    """
    session = session or SimulationSession(
        chip, options, retry=retry, on_failure=on_failure or "raise"
    )
    mappings, tags, batches = _compile_missweep(
        generator, max_misalignments, freq_hz, assignments_sample, n_events,
        chip.n_cores,
    )
    run_results = session.run_many(mappings, tags)
    kept = set(_drop_failed_points(run_results, tags, "missweep", session))
    results: dict[float, list[float]] = {}
    cursor = 0
    for max_mis, count in batches:
        accumulator = np.zeros(chip.n_cores)
        solved = 0
        for index in range(cursor, cursor + count):
            if index in kept:
                accumulator += np.array(run_results[index].p2p_by_core)
                solved += 1
        cursor += count
        if solved:
            results[max_mis] = list(accumulator / solved)
    return results


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


def _compile_disweep(
    generator: StressmarkGenerator,
    freq_hz: float,
    workload_filter: Callable[[tuple[int, int]], bool] | None,
    placements_per_distribution: int,
    n_cores: int,
):
    """The exact (mappings, tags, planned, full_delta) enumeration of
    the ΔI mapping dataset — shared by the plan compiler and the
    executor (and, via the figure tags, by Figures 11a/11b/13a)."""
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

    mappings = [
        [by_level[level] for level in placement]
        for placement, _, _ in planned
    ]
    tags: list[object] = [("disweep", placement) for placement, _, _ in planned]
    return mappings, tags, planned, full_delta


def plan_delta_i_mappings(
    generator: StressmarkGenerator,
    chip: Chip,
    freq_hz: float = 2.6e6,
    options: RunOptions | None = None,
    workload_filter: Callable[[tuple[int, int]], bool] | None = None,
    placements_per_distribution: int = 4,
    figure: str | None = None,
) -> RunPlan:
    """The declarative form of :func:`sweep_delta_i_mappings`."""
    mappings, tags, _, _ = _compile_disweep(
        generator, freq_hz, workload_filter, placements_per_distribution,
        chip.n_cores,
    )
    return RunPlan.from_batch(
        chip, mappings, tags, options or RunOptions(), figure
    )


def sweep_delta_i_mappings(
    generator: StressmarkGenerator,
    chip: Chip,
    freq_hz: float = 2.6e6,
    options: RunOptions | None = None,
    workload_filter: Callable[[tuple[int, int]], bool] | None = None,
    placements_per_distribution: int = 4,
    session: SimulationSession | None = None,
    retry: RetryPolicy | None = None,
    on_failure: str | None = None,
) -> list[DeltaIMappingPoint]:
    """Run workload→core mappings of {idle, medium, max} dI/dt.

    Following §V-D: the medium stressmark generates half the ΔI of the
    maximum one and everything is synchronized to maximize noise.  For
    each (#max, #medium) distribution, up to
    ``placements_per_distribution`` distinct core placements are
    executed (the paper runs all of them; the deterministic sample keeps
    the dataset rich enough for the correlation and mapping studies at a
    fraction of the runs).  The whole dataset executes as one session
    batch; Figures 11a, 11b and 13a address the identical batch and so
    share its cached runs.  With ``on_failure="collect"`` the dataset
    keeps the mappings that solved — a fault-degraded shmoo campaign
    still yields its partial scatter.
    """
    session = session or SimulationSession(
        chip, options, retry=retry, on_failure=on_failure or "raise"
    )
    mappings, tags, planned, full_delta = _compile_disweep(
        generator, freq_hz, workload_filter, placements_per_distribution,
        chip.n_cores,
    )
    results = session.run_many(mappings, tags)
    kept = _drop_failed_points(results, tags, "disweep", session)
    return [
        DeltaIMappingPoint(
            mapping_id=mapping_id,
            placement=planned[index][0],
            distribution=planned[index][1],
            delta_i_pct=100.0 * planned[index][2] / full_delta,
            p2p_by_core=results[index].p2p_by_core,
            active_cores=sum(planned[index][1]),
        )
        for mapping_id, index in enumerate(kept)
    ]
