"""Oscilloscope trace capture of die voltage (paper Figure 8).

The authors confirmed skitter readings with direct oscilloscope
measurements of the core supply.  Here the scope reads the same
waveform the PDN solution produces — an honest but weaker check than on
silicon (see DESIGN.md §6) — cropped and resampled the way a scope shot
is."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MeasurementError
from ..machine.workload import CurrentProgram
from ..plan.spec import Sweep

__all__ = ["TraceCapture", "capture_trace"]

#: The run tag every scope capture executes under.
SCOPE_RUN_TAG = "oscilloscope"


@dataclass
class TraceCapture:
    """One captured voltage trace.

    Attributes
    ----------
    times, volts:
        The waveform, uniformly resampled.
    node:
        Observed PDN node.
    """

    times: np.ndarray
    volts: np.ndarray
    node: str

    @property
    def peak_to_peak(self) -> float:
        return float(self.volts.max() - self.volts.min())

    def crop(self, start: float, stop: float) -> "TraceCapture":
        """A sub-window of the capture (e.g. a single stimulus period)."""
        if stop <= start:
            raise MeasurementError("empty crop window")
        mask = (self.times >= start) & (self.times <= stop)
        if not mask.any():
            raise MeasurementError("crop window contains no samples")
        return TraceCapture(self.times[mask], self.volts[mask], self.node)


def capture_trace(
    mapping: list[CurrentProgram | None],
    node: str = "core0",
    samples: int = 4000,
) -> Sweep:
    """Run *mapping* once and capture the voltage at *node*.

    The capture window covers the simulated burst (a 20 µs-class shot
    at the paper's 2 MHz stimulus).  The run executes under a scope
    variant of the session's options (waveform collection on, one
    segment) — a copy, never a mutation.  The value is the
    :class:`TraceCapture`.
    """

    def finish(results: list) -> TraceCapture:
        waveforms = results[0].waveforms
        if node not in waveforms:
            raise MeasurementError(f"node {node!r} was not recorded")
        times, volts = waveforms[node]
        uniform = np.linspace(times[0], times[-1], samples)
        return TraceCapture(uniform, np.interp(uniform, times, volts), node)

    return Sweep(
        mappings=(tuple(mapping),),
        tags=(SCOPE_RUN_TAG,),
        finish=finish,
        overrides={"collect_waveforms": True, "segments": 1},
    )
