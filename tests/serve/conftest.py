"""Serve test fixtures: isolated services over cheap run options."""

from __future__ import annotations

import threading

import pytest

from repro.engine.cache import ResultCache
from repro.machine.runner import RunOptions
from repro.obs import Telemetry
from repro.serve import SimulationService


#: The canonical cheap request used across the serve tests.
def program_payload(i_high: float = 25.0, freq_hz: float = 9e7) -> dict:
    return {"i_low": 5.0, "i_high": i_high, "freq_hz": freq_hz}


def simulate_payload(i_high: float = 25.0, freq_hz: float = 9e7) -> dict:
    return {"op": "simulate", "mapping": [program_payload(i_high, freq_hz)]}


@pytest.fixture()
def cheap_options():
    """Very cheap runner options — serving tests measure the plumbing,
    not the PDN."""
    return RunOptions(segments=1, events_cap=40, base_samples=64)


@pytest.fixture()
def telemetry():
    return Telemetry()


@pytest.fixture()
def service(chip, cheap_options, telemetry):
    """An isolated started service: private cache/telemetry, serial
    executor."""
    svc = SimulationService(
        chip,
        cheap_options,
        cache=ResultCache(cache_dir=None, telemetry=telemetry),
        jobs=1,
        telemetry=telemetry,
    ).start()
    yield svc
    svc.stop()


class GatedService(SimulationService):
    """A service whose execution stage blocks on a gate — the seam the
    coalescing and backpressure tests use to hold requests in flight
    deterministically."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.entered = threading.Event()

    def _execute_group(self, session, items):
        self.entered.set()
        assert self.gate.wait(30.0), "test forgot to open the gate"
        super()._execute_group(session, items)


@pytest.fixture()
def gated_service(chip, cheap_options, telemetry):
    svc = GatedService(
        chip,
        cheap_options,
        cache=ResultCache(cache_dir=None, telemetry=telemetry),
        jobs=1,
        telemetry=telemetry,
    ).start()
    yield svc
    svc.gate.set()  # never leave the executor thread wedged
    svc.stop()
