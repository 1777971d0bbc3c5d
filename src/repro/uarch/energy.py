"""Per-µop energy model derived from the ISA's power weights.

The ISA stores, per instruction, the *relative sustained power* of a
dependence-free single-instruction loop (Table I semantics: cheapest
instruction = 1.0).  This module inverts that definition into per-µop
energies:

    measured_power(inst loop) = floor_power * weight(inst)
    dynamic_power             = measured_power - static_power
    epi(inst)                 = dynamic_power / (clock * uop_rate(inst loop))

where ``uop_rate`` comes from the analytic throughput model applied to
the Table I skeleton itself — a long dependence-free repetition of the
instruction — so that profiling such a loop measures back exactly the
defined weight.  With
per-µop energies in hand, the power of an *arbitrary* sequence follows
from its own throughput profile — and mixed-unit sequences genuinely
exceed any single instruction's power, because single-instance units
(vector, FP) carry higher per-µop energy at the same loop power.
That emergent property is what makes the paper's max-power search over
instruction combinations meaningful.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import UarchError
from ..isa.instruction import InstructionDef
from ..isa.isa import Isa
from .resources import CoreConfig
from .throughput import analyze_loop

__all__ = ["EnergyModel"]


class EnergyModel:
    """Maps instructions and sequences to energies and powers."""

    #: Repetitions used to compute the asymptotic µop rate of the
    #: Table I skeleton (long dependence-free repetition loops).  Two
    #: dozen repetitions are enough for group-formation effects to
    #: converge; the real skeleton uses 4000.
    CALIBRATION_REPS = 24

    def __init__(self, isa: Isa, config: CoreConfig):
        self.isa = isa
        self.config = config
        self._epi: dict[str, float] = {}
        dyn_scale = config.floor_power_w - config.static_power_w
        if dyn_scale <= 0:
            raise UarchError("floor power must exceed static power")
        for inst in isa:
            profile = analyze_loop([inst] * self.CALIBRATION_REPS, config)
            uop_rate_hz = profile.ipc * config.clock_hz
            measured = config.floor_power_w * inst.power_weight
            dynamic = measured - config.static_power_w
            if dynamic <= 0:  # pragma: no cover - weights are >= 1.0
                raise UarchError(f"{inst.mnemonic}: non-positive dynamic power")
            self._epi[inst.mnemonic] = dynamic / uop_rate_hz

    def epi(self, inst: InstructionDef | str) -> float:
        """Energy per µop in joules."""
        mnemonic = inst if isinstance(inst, str) else inst.mnemonic
        try:
            return self._epi[mnemonic]
        except KeyError:
            raise UarchError(f"no energy data for {mnemonic!r}") from None

    def iteration_energy(self, body: Sequence[InstructionDef]) -> float:
        """Dynamic energy of one loop iteration (joules)."""
        return sum(self.epi(inst) * inst.uops for inst in body)

    def dynamic_power(
        self, body: Sequence[InstructionDef], profile=None
    ) -> float:
        """Steady-state dynamic power of an endless loop over *body* (W).

        Callers that already hold *body*'s throughput profile pass it
        in to skip re-deriving it (profiling a 4000-instruction EPI
        skeleton is not free)."""
        if profile is None:
            profile = analyze_loop(body, self.config)
        seconds_per_iteration = profile.cycles * self.config.cycle_time
        return self.iteration_energy(body) / seconds_per_iteration

    def total_power(self, body: Sequence[InstructionDef]) -> float:
        """Steady-state total power (static + dynamic) in watts."""
        return self.config.static_power_w + self.dynamic_power(body)

    def current(self, body: Sequence[InstructionDef]) -> float:
        """Steady-state supply current draw (A) at nominal voltage."""
        return self.total_power(body) / self.config.vnom

    @property
    def idle_current(self) -> float:
        """Idle supply current (A)."""
        return self.config.static_power_w / self.config.vnom
