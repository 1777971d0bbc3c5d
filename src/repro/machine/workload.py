"""Compiled electrical behavior of a per-core workload.

A :class:`CurrentProgram` is what a workload looks like to the power
delivery network: a low and a high current level, a stimulus frequency
alternating between them, how many consecutive ΔI events fire per
burst, and how the burst is synchronized to the TOD.  The stressmark
generator (:mod:`repro.core.stressmark`) compiles its programs down to
this form using the microarchitecture's power model; the run engine
(:mod:`repro.machine.runner`) consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from ..errors import ConfigError
from .tod import SYNC_INTERVAL, TOD_STEP

__all__ = [
    "SyncSpec", "CurrentProgram", "idle_program", "is_deterministic_mapping",
]


@dataclass(frozen=True)
class SyncSpec:
    """TOD-based burst synchronization.

    Attributes
    ----------
    offset:
        Programmed misalignment after each sync point (multiple of the
        62.5 ns TOD step).
    events_per_sync:
        Consecutive ΔI events fired per burst before re-synchronizing
        (the paper's default between sync points is one thousand).
    interval:
        Sync-point spacing (4 ms on the platform).
    """

    offset: float = 0.0
    events_per_sync: int = 1000
    interval: float = SYNC_INTERVAL

    def __post_init__(self) -> None:
        if self.events_per_sync < 1:
            raise ConfigError("need at least one event per sync burst")
        if self.offset < 0:
            raise ConfigError("misalignment offsets are non-negative")
        steps = self.offset / TOD_STEP
        if abs(steps - round(steps)) > 1e-6:
            raise ConfigError(
                f"offset {self.offset!r}s is not a multiple of the TOD step"
            )

    def with_offset(self, offset: float) -> "SyncSpec":
        """Copy with a different programmed misalignment."""
        return replace(self, offset=offset)


@dataclass(frozen=True)
class CurrentProgram:
    """Electrical view of one core's workload.

    ``freq_hz`` of ``None`` means a steady current (idle or a constant
    workload): no ΔI events are generated.
    """

    name: str
    i_low: float
    i_high: float
    freq_hz: float | None = None
    duty: float = 0.5
    rise_time: float = 2e-9
    sync: SyncSpec | None = None

    def __post_init__(self) -> None:
        if self.i_low < 0 or self.i_high < self.i_low:
            raise ConfigError(
                f"{self.name}: need 0 <= i_low <= i_high "
                f"(got {self.i_low}, {self.i_high})"
            )
        if self.freq_hz is not None and self.freq_hz <= 0:
            raise ConfigError(f"{self.name}: stimulus frequency must be positive")
        if not 0.0 < self.duty < 1.0:
            raise ConfigError(f"{self.name}: duty must be in (0, 1)")
        if self.rise_time <= 0:
            raise ConfigError(f"{self.name}: rise time must be positive")

    @property
    def delta_i(self) -> float:
        """ΔI of one event (A)."""
        return self.i_high - self.i_low

    @property
    def is_steady(self) -> bool:
        """True when the program generates no ΔI events."""
        return self.freq_hz is None or self.delta_i == 0.0

    @property
    def is_phase_randomized(self) -> bool:
        """True when the run engine draws a random burst phase for this
        program: it generates ΔI events but is not (effectively)
        TOD-synchronized.  A sync spec whose burst period exceeds the
        sync interval cannot actually align and counts as unsynced,
        mirroring the runner's segment construction."""
        if self.is_steady:
            return False
        if self.sync is None:
            return True
        return (1.0 / self.freq_hz) > self.sync.interval

    def with_sync(self, sync: SyncSpec | None) -> "CurrentProgram":
        """Copy with a different synchronization specification."""
        return replace(self, sync=sync)


def idle_program(idle_current: float) -> CurrentProgram:
    """The 'nothing' workload of the paper's ΔI study: a core sitting
    at its static current."""
    return CurrentProgram(name="idle", i_low=idle_current, i_high=idle_current)


def is_deterministic_mapping(
    mapping: Sequence[CurrentProgram | None],
) -> bool:
    """True when no program in *mapping* draws random phases — every
    bursting program is TOD-synchronized, so the run is independent of
    the run tag and the phase seed, and every observation window sees
    the same stimulus."""
    return not any(
        program is not None and program.is_phase_randomized
        for program in mapping
    )
