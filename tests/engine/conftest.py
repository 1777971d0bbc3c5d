"""Engine test fixtures: cheap programs and isolated sessions."""

from __future__ import annotations

import pytest

from repro.engine import ResultCache, SimulationSession
from repro.machine.runner import RunOptions
from repro.machine.workload import CurrentProgram, SyncSpec
from repro.obs import Telemetry


def didt(sync: bool = True, i_high: float = 32.0) -> CurrentProgram:
    """A resonant square-wave program (synchronized by default)."""
    return CurrentProgram(
        "m", i_low=14.0, i_high=i_high, freq_hz=2.6e6, rise_time=11e-9,
        sync=SyncSpec() if sync else None,
    )


@pytest.fixture()
def telemetry():
    return Telemetry()


@pytest.fixture()
def session(chip, telemetry):
    """An isolated session: private cache, private telemetry, serial
    executor, cheap options."""
    return SimulationSession(
        chip,
        RunOptions(segments=2, base_samples=1024),
        cache=ResultCache(telemetry=telemetry),
        jobs=1,
        telemetry=telemetry,
    )
