"""Cycle-level pipeline simulator: the oracle of the analytic IPC model.

An independent, executable model of the core used to (a) validate the
analytic throughput model (:mod:`repro.uarch.throughput`) and (b)
produce per-cycle energy traces, from which the power ramp shape of a
workload transition can be observed.  It is intentionally simpler than
a full OoO model — dispatch groups issue in order, each µop occupies a
functional-unit instance for one cycle (pipelined) or for its latency
(non-pipelined), serializing instructions drain the machine — which
matches the granularity the stressmark methodology needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import UarchError
from repro.isa.instruction import InstructionDef
from repro.uarch.energy import EnergyModel
from repro.uarch.grouping import form_groups
from repro.uarch.resources import CoreConfig

__all__ = ["PipelineResult", "simulate_loop"]


@dataclass
class PipelineResult:
    """Outcome of a cycle-level simulation.

    Attributes
    ----------
    cycles:
        Total cycles simulated.
    uops:
        Total µops dispatched.
    ipc:
        µops per cycle over the whole run.
    energy_per_cycle:
        Dynamic energy dispatched each cycle (J), length ``cycles``.
    """

    cycles: int
    uops: int
    ipc: float
    energy_per_cycle: np.ndarray

    def dynamic_power(self, clock_hz: float) -> float:
        """Average dynamic power over the run (W)."""
        if self.cycles == 0:
            return 0.0
        return float(self.energy_per_cycle.sum()) * clock_hz / self.cycles


def simulate_loop(
    body: Sequence[InstructionDef],
    model: EnergyModel,
    iterations: int = 50,
) -> PipelineResult:
    """Simulate *iterations* repetitions of *body* cycle by cycle."""
    if not body:
        raise UarchError("loop body is empty")
    if iterations < 1:
        raise UarchError("need at least one iteration")

    config: CoreConfig = model.config
    groups = form_groups(body, config)

    # Per-unit instance availability: the cycle at which each instance
    # can accept its next µop.
    available: dict[str, list[int]] = {
        unit: [0] * count for unit, count in config.unit_counts.items()
    }

    energy: list[float] = []
    cycle = 0
    total_uops = 0

    def ensure_cycle(upto: int) -> None:
        while len(energy) <= upto:
            energy.append(0.0)

    #: Issue-queue depth: a group may dispatch while its µops wait up to
    #: this many cycles for a busy unit instance; deeper backlogs stall
    #: dispatch (backpressure).
    queue_depth = 8

    for _ in range(iterations):
        for group in groups:
            serializing = any(inst.serializing for inst in group)
            if serializing:
                # Wait until every unit instance is free.
                cycle = max(
                    cycle, max(max(slots) for slots in available.values())
                )
            # Find the earliest dispatch cycle at which every µop can
            # issue within the queue window.
            start = cycle
            while True:
                feasible = True
                claims: list[tuple[str, int, int, int]] = []
                # Tentative per-instance claim bookkeeping for this try.
                tentative = {u: list(s) for u, s in available.items()}
                for inst in group:
                    occupancy = 1 if inst.pipelined else inst.latency
                    for _ in range(inst.uops):
                        slots = tentative[inst.unit]
                        idx = min(range(len(slots)), key=slots.__getitem__)
                        issue_at = max(slots[idx], start)
                        if issue_at - start > queue_depth:
                            feasible = False
                            break
                        claims.append(
                            (inst.unit, idx, issue_at, issue_at + occupancy)
                        )
                        slots[idx] = issue_at + occupancy
                    if not feasible:
                        break
                if feasible:
                    break
                start += 1
            for unit, idx, _issue, until in claims:
                available[unit][idx] = until
            cycle = start
            group_uops = sum(inst.uops for inst in group)
            total_uops += group_uops
            # Energy is spent when µops issue.
            uop_index = 0
            for inst in group:
                for _ in range(inst.uops):
                    _, _, issue_at, _ = claims[uop_index]
                    ensure_cycle(issue_at)
                    energy[issue_at] += model.epi(inst)
                    uop_index += 1
            ensure_cycle(cycle)
            if serializing:
                # Drain: nothing dispatches until the latency elapses.
                drain = max(inst.latency for inst in group if inst.serializing)
                cycle += drain
            else:
                cycle += 1

    ensure_cycle(cycle)
    trace = np.array(energy)
    n_cycles = len(trace)
    return PipelineResult(
        cycles=n_cycles,
        uops=total_uops,
        ipc=total_uops / n_cycles,
        energy_per_cycle=trace,
    )
