"""Measurement substrates of the evaluation platform.

Each module models one of the observation mechanisms the paper used on
real silicon:

* :mod:`.skitter` — the on-chip skitter macros (latched-tapped inverter
  delay lines) whose %p2p readout is the paper's primary noise metric;
* :mod:`.counters` — hardware performance counters behind a PCL-style
  API (used to assess generated benchmarks);
* :mod:`.powermeter` — service-element chip power readings with
  milliwatt granularity;
* :mod:`.oscilloscope` — direct voltage trace capture (Figure 8);
* :mod:`.runit` — the recovery unit's failure detection, driven by a
  critical-path timing model;
* :mod:`.vmin` — the Vmin experiment protocol: undervolt in 0.5 % steps
  until first failure, report the available margin.
"""

from .skitter import SkitterConfig, SkitterMacro, SkitterReading
from .counters import CounterReading, read_counters
from .powermeter import PowerMeter
from .oscilloscope import TraceCapture, capture_trace
from .runit import RUnitConfig, RUnit
from .vmin import VminResult, vmin_experiment

__all__ = [
    "SkitterConfig",
    "SkitterMacro",
    "SkitterReading",
    "CounterReading",
    "read_counters",
    "PowerMeter",
    "TraceCapture",
    "capture_trace",
    "RUnitConfig",
    "RUnit",
    "VminResult",
    "vmin_experiment",
]
