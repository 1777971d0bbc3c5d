"""Minimum-power sequence selection.

"We also rely on the EPI profile to define the minimum power sequence.
We select the last instruction of the instruction rank as the minimum
power sequence.  Note that the no-operation instruction (nop) is not
the optimal candidate.  Instead, long-latency instructions (such as
divisions or decimal instructions) are better candidates because they
stall all parts of the processor."  (paper §IV-B)

The model reproduces the mechanism: a trivial-but-fast instruction
keeps dispatching three per cycle and burns front-end energy, while a
serializing or long-latency operation issues once per tens of cycles,
so its loop sits at the machine's floor power.
"""

from __future__ import annotations

from ..isa.instruction import InstructionDef
from .epi import EpiProfile

__all__ = ["min_power_sequence"]


def min_power_sequence(profile: EpiProfile) -> tuple[InstructionDef, ...]:
    """The minimum-power sequence: the ranking's last instruction."""
    return (profile.last.instruction,)
