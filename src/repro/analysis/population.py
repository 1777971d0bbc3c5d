"""Multi-chip population studies.

"For the purpose of this work, various CP chips of zEC12 systems were
measured" and "experiments have been run on different processors
multiple times to check their reproducibility".  This module runs a
measurement across a seeded population of chip instances (each with its
own process-variation draw) and summarizes the spread — the
reproducibility view the paper's averaging relies on, and the
population data a shipping-voltage decision would be based on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..engine.executor import make_executor
from ..engine.resilience import RetryPolicy
from ..errors import ExecutionError, ExperimentError
from ..machine.chip import ChipConfig, Chip
from ..obs import get_telemetry

__all__ = ["PopulationStatistic", "run_population_study"]


@dataclass
class PopulationStatistic:
    """Distribution of one scalar metric across a chip population."""

    name: str
    values: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        return float(self.values.std(ddof=1)) if self.values.size > 1 else 0.0

    @property
    def minimum(self) -> float:
        return float(self.values.min())

    @property
    def maximum(self) -> float:
        return float(self.values.max())

    @property
    def spread_pct(self) -> float:
        """Max-min spread relative to the mean, in percent."""
        if self.mean == 0:
            return 0.0
        return 100.0 * (self.maximum - self.minimum) / abs(self.mean)

    def summary(self) -> str:
        return (
            f"{self.name}: mean {self.mean:.2f}, σ {self.std:.2f}, "
            f"range [{self.minimum:.2f}, {self.maximum:.2f}] "
            f"({self.spread_pct:.1f}% spread)"
        )


@dataclass
class _ChipMetricTask:
    """Picklable per-chip evaluation unit: builds the chip instance for
    one ``chip_id`` and applies the metric (the metric must itself be
    picklable — a module-level function — for the process backend)."""

    metric: Callable[[Chip], float]
    config: ChipConfig

    def __call__(self, chip_id: int) -> float:
        return float(self.metric(Chip(self.config, chip_id=chip_id)))


def run_population_study(
    metric: Callable[[Chip], float],
    name: str,
    n_chips: int = 8,
    config: ChipConfig | None = None,
    retry: RetryPolicy | None = None,
) -> PopulationStatistic:
    """Evaluate *metric* on *n_chips* chip instances.

    Each chip gets its own variation draw (``chip_id`` 0..n-1 under the
    shared seed); the metric receives a fully built :class:`Chip`.
    Chips are independent, so the evaluations fan out over the engine
    executor (``$REPRO_JOBS`` sizes it); results are identical to serial
    execution since every chip derives its own named random streams.
    Per-chip evaluations execute under *retry* (env default): a flaky
    worker is retried and a broken pool degrades to serial, but a
    population with a permanently failing chip raises — a spread
    statistic over a partial population would silently lie.
    """
    if n_chips < 2:
        raise ExperimentError("a population needs at least two chips")
    config = config or ChipConfig()
    executor = make_executor()
    retry = retry or RetryPolicy.from_env()
    telemetry = get_telemetry()
    telemetry.increment("population.chips", n_chips)
    with telemetry.time("population.seconds"):
        outcomes = executor.map_guarded(
            _ChipMetricTask(metric, config),
            list(range(n_chips)),
            retry,
            labels=[f"{name}[chip {i}]" for i in range(n_chips)],
        )
    retries = sum(outcome.attempts - 1 for outcome in outcomes)
    if retries:
        telemetry.increment("engine.retries", retries)
    failures = [o.failure for o in outcomes if not o.ok]
    if failures:
        telemetry.increment("engine.failures", len(failures))
        raise ExecutionError(
            f"{len(failures)} of {n_chips} chip evaluations failed "
            f"permanently; first: {failures[0].describe()}",
            failures,
        ) from failures[0].exception
    return PopulationStatistic(
        name=name, values=np.array([o.value for o in outcomes])
    )
