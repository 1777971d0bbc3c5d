"""Target definition: the binding of ISA, core model and energy model.

In Microprobe terms this is the "back-end knowledge base ... implemented
via target definition files" the paper had to build for the evaluation
platform before the characterization could start.  A :class:`Target`
is the single object the stressmark methodology carries around: it
answers "what instructions exist", "how fast does this loop run" and
"how much power does it burn".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from ..isa.isa import Isa
from ..isa.zmainframe import build_zmainframe_isa
from ..uarch.energy import EnergyModel
from ..uarch.power import PowerEstimate, estimate_loop_power
from ..uarch.resources import CoreConfig, default_core_config
from ..uarch.throughput import LoopProfile, analyze_loop
from .program import Program

__all__ = ["Target", "default_target"]


@dataclass
class Target:
    """A fully bound evaluation target."""

    isa: Isa
    core: CoreConfig

    @cached_property
    def energy_model(self) -> EnergyModel:
        """Per-µop energy model (built lazily; it profiles every
        instruction once)."""
        return EnergyModel(self.isa, self.core)

    @cached_property
    def digest(self) -> str:
        """Content digest of the target: every field of every
        instruction definition plus the core configuration, read
        through their dataclass ``repr`` (stable across processes).
        The ISA's name is not part of it; two ISAs with the same
        definitions are the same target.

        It never pickles the ISA: pickling materializes each
        definition's ``__dict__``, which slows every later attribute
        read of the profiling loops."""
        text = repr((self.core, tuple(self.isa)))
        return hashlib.sha256(text.encode()).hexdigest()

    def profile(self, program: Program) -> LoopProfile:
        """Steady-state throughput profile of *program*'s loop.

        The profile is memoized on the program object (keyed by this
        target's core config): generated programs are immutable after
        construction, and one EPI measurement reads the same program's
        profile from the meter, the counters and the energy model —
        re-deriving a 4000-instruction profile three times per ISA
        entry dominates generation wall clock."""
        memo = getattr(program, "_profile_memo", None)
        if memo is not None and memo[0] is self.core:
            return memo[1]
        profile = analyze_loop(program.loop_definitions, self.core)
        program._profile_memo = (self.core, profile)
        return profile

    def power(self, program: Program) -> PowerEstimate:
        """Steady-state power estimate of *program*'s loop."""
        return estimate_loop_power(
            program.loop_definitions,
            self.energy_model,
            profile=self.profile(program),
        )

    @property
    def idle_current(self) -> float:
        """Idle (static-only) current of one core, in amperes."""
        return self.energy_model.idle_current


def default_target() -> Target:
    """The reference target: synthetic mainframe ISA on the reference
    core configuration."""
    return Target(isa=build_zmainframe_isa(), core=default_core_config())
