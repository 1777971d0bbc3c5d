"""Hardware performance counters behind a PCL-style API.

The paper gathers performance-counter data through the standard Linux
performance counter API to assess generated benchmarks (IPC filtering
runs on these numbers).  The model evaluates a program on the modeled
core and returns the counters a profiling run would report, with a
small seeded measurement jitter so that repeated "runs" are not
byte-identical — the methodology must be robust to that, as it is on
hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MeasurementError
from ..mbench.program import Program
from ..mbench.target import Target
from ..rng import stream

__all__ = ["CounterReading", "read_counters"]


@dataclass(frozen=True)
class CounterReading:
    """Counter snapshot over one sampling interval.

    ``ipc`` follows the paper's footnote: µops executed per cycle
    (which for a CISC architecture differs from instructions committed
    per cycle).
    """

    cycles: int
    instructions: int
    uops: int
    ipc: float
    group_size_avg: float


def read_counters(
    program: Program,
    target: Target,
    duration_s: float = 2.0,
    jitter: float = 0.002,
    seed: int = 0,
) -> CounterReading:
    """Sample the counters while *program* runs for *duration_s*.

    ``jitter`` is the relative 1σ measurement noise on the cycle count.
    """
    if duration_s <= 0:
        raise MeasurementError("sampling duration must be positive")
    profile = target.profile(program)
    iterations = duration_s * target.core.clock_hz / profile.cycles
    rng = stream(seed, "counters", program.name)
    noise = 1.0 + float(rng.normal(0.0, jitter)) if jitter > 0 else 1.0
    cycles = max(int(iterations * profile.cycles * noise), 1)
    instructions = int(iterations * len(program.loop_definitions))
    uops = int(iterations * profile.uops)
    return CounterReading(
        cycles=cycles,
        instructions=instructions,
        uops=uops,
        ipc=uops / cycles,
        group_size_avg=profile.avg_group_size,
    )
