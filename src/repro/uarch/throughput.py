"""Analytic steady-state throughput model for loop kernels.

For an endless loop whose body repeats a fixed instruction sequence with
no loop-carried data dependences (the shape every generated
microbenchmark has), the steady-state cycles per iteration are bounded
by three mechanisms:

* **dispatch** — one group per cycle, so at least ``len(groups)``
  cycles;
* **functional-unit capacity** — each unit instance completes one µop
  per cycle when pipelined, or occupies the unit for ``latency`` cycles
  per µop when not (dividers, long decimal ops);
* **serialization** — serializing instructions drain the pipeline and
  insert their full latency.

The model returns the binding bottleneck, which the paper's IPC
filtering stage exploits ("it is well-known that IPC is directly
related to power").  A cycle-level pipeline simulator
(``tests/oracles/pipeline.py``) validates this model in the test suite.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from ..errors import UarchError
from ..isa.instruction import InstructionDef
from .grouping import form_groups
from .resources import CoreConfig

__all__ = ["LoopProfile", "analyze_loop"]


@dataclass
class LoopProfile:
    """Steady-state execution profile of one loop iteration.

    Attributes
    ----------
    cycles:
        Cycles per iteration (float; fractional values arise from unit
        capacity limits averaged over iterations).
    uops:
        Total µops per iteration.
    ipc:
        µops per cycle — the metric the paper's IPC filter ranks by.
    groups:
        Dispatch groups per iteration.
    avg_group_size:
        Instructions per dispatch group.
    bottleneck:
        Human-readable name of the binding constraint
        (``dispatch``, ``unit:FXU``, ``serialize``).
    unit_load:
        Unit name → busy-cycles demanded per iteration per instance.
    """

    cycles: float
    uops: int
    ipc: float
    groups: int
    avg_group_size: float
    bottleneck: str
    unit_load: dict[str, float]


def analyze_loop(
    body: Sequence[InstructionDef], config: CoreConfig
) -> LoopProfile:
    """Profile one iteration of an endless loop running *body*."""
    if not body:
        raise UarchError("loop body is empty")

    groups = form_groups(body, config)
    n_groups = len(groups)

    unit_load: dict[str, float] = defaultdict(float)
    serialize_penalty = 0.0
    total_uops = 0
    for inst in body:
        total_uops += inst.uops
        occupancy = float(inst.latency) if not inst.pipelined else 1.0
        unit_load[inst.unit] += inst.uops * occupancy / config.unit_count(inst.unit)
        if inst.serializing:
            # A serializing instruction spends its latency with the
            # pipeline drained; one cycle is already counted as its
            # dispatch group.
            serialize_penalty += inst.latency - 1.0

    candidates: list[tuple[float, str]] = [(float(n_groups), "dispatch")]
    for unit, load in unit_load.items():
        candidates.append((load, f"unit:{unit}"))
    cycles, bottleneck = max(candidates, key=lambda pair: pair[0])
    cycles += serialize_penalty
    if serialize_penalty > 0 and serialize_penalty >= cycles / 2:
        bottleneck = "serialize"

    return LoopProfile(
        cycles=cycles,
        uops=total_uops,
        ipc=total_uops / cycles,
        groups=n_groups,
        avg_group_size=len(body) / n_groups,
        bottleneck=bottleneck,
        unit_load=dict(unit_load),
    )
