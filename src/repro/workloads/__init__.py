"""Workload modeling beyond stressmarks.

The paper's optimization discussion (§VII) reasons about *real* machine
load, including utilization that varies over time.  :mod:`.traces`
provides utilization traces (active-core counts over time) for the
dynamic guard-banding controller.  The paper's 80 %-ΔI customer
workload is :func:`repro.analysis.margins.customer_program`.
"""

from .traces import UtilizationTrace, synthetic_utilization_trace

__all__ = [
    "UtilizationTrace",
    "synthetic_utilization_trace",
]
