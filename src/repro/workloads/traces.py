"""Utilization traces for the dynamic guard-banding study.

The paper (§VII-B): "the benefits of this simple mechanism depend on
the utilization rates of the processor on real environments".  A
:class:`UtilizationTrace` is a step function of active-core counts over
time; :func:`synthetic_utilization_trace` generates plausible
diurnal-style traces, seeded and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..rng import stream

__all__ = ["UtilizationTrace", "synthetic_utilization_trace"]


@dataclass
class UtilizationTrace:
    """Active-core counts over uniform time intervals.

    ``counts[k]`` is the number of cores that may execute work during
    interval ``k``; every interval spans ``interval_s`` seconds.
    """

    counts: np.ndarray
    interval_s: float
    n_cores: int = 6

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=int)
        if self.counts.size == 0:
            raise ConfigError("trace needs at least one interval")
        if self.interval_s <= 0:
            raise ConfigError("interval must be positive")
        if self.counts.min() < 0 or self.counts.max() > self.n_cores:
            raise ConfigError("active-core counts out of range")

    @property
    def duration_s(self) -> float:
        return float(self.counts.size * self.interval_s)

    @property
    def mean_utilization(self) -> float:
        """Average fraction of cores active."""
        return float(self.counts.mean() / self.n_cores)


def synthetic_utilization_trace(
    seed: int = 0,
    intervals: int = 288,
    interval_s: float = 300.0,
    n_cores: int = 6,
    base_load: float = 0.35,
    peak_load: float = 0.85,
    noise: float = 0.12,
) -> UtilizationTrace:
    """A diurnal utilization trace: low overnight, peaking mid-cycle.

    Defaults produce one day at five-minute resolution.  ``base_load``
    and ``peak_load`` bound the sinusoidal mean; ``noise`` adds seeded
    per-interval jitter before rounding to whole cores.
    """
    if not 0.0 <= base_load <= peak_load <= 1.0:
        raise ConfigError("need 0 <= base_load <= peak_load <= 1")
    if intervals < 1:
        raise ConfigError("need at least one interval")
    rng = stream(seed, "utilization-trace", intervals, interval_s)
    phase = np.linspace(0.0, 2.0 * np.pi, intervals, endpoint=False)
    mean = base_load + (peak_load - base_load) * 0.5 * (1.0 - np.cos(phase))
    jitter = rng.normal(0.0, noise, size=intervals) if noise > 0 else 0.0
    load = np.clip(mean + jitter, 0.0, 1.0)
    counts = np.rint(load * n_cores).astype(int)
    return UtilizationTrace(counts=counts, interval_s=interval_s, n_cores=n_cores)
