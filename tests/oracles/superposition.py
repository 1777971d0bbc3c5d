"""Per-edge superposition: the oracle of the compiled chip kernel.

Because the PDN is linear and time invariant, the voltage at any node is
the superposition of scaled, shifted ramp responses, one per current
edge.  This module evaluates that sum edge by edge from a
:class:`~repro.pdn.response.ResponseLibrary`, the slow, obviously
correct form of what :class:`~repro.pdn.kernels.CompiledChipKernel`
factors into modal prefix sums.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.pdn.response import ResponseLibrary
from repro.pdn.superposition import EdgeTrain

__all__ = ["assemble_voltage"]


def assemble_voltage(
    library: ResponseLibrary,
    node: str,
    trains: list[EdgeTrain],
    times: np.ndarray,
    baseline: Mapping[str, float] | None = None,
) -> np.ndarray:
    """Voltage *deviation* waveform at *node* produced by the edge trains.

    Parameters
    ----------
    library:
        Precomputed responses (must cover every train's port and *node*).
    trains:
        Current edge trains, one or more per load port.
    times:
        Sample instants (s).
    baseline:
        Optional constant load per port (A); adds the steady (IR) shift
        via the DC gains.  Peak-to-peak noise is unaffected by it, but
        absolute levels (for Vmin experiments) need it.

    Returns
    -------
    numpy.ndarray
        Deviation from the unloaded node voltage at each sample instant
        (negative values are droops).
    """
    times = np.asarray(times, dtype=float)
    voltage = np.zeros_like(times)
    for train in trains:
        for t_edge, delta in zip(train.times, train.deltas):
            if delta == 0.0:
                continue
            voltage += delta * library.ramp(train.port, node, times - t_edge)
    if baseline:
        for port, amps in baseline.items():
            if amps:
                voltage += amps * library.dc(port, node)
    return voltage
