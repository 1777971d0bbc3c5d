"""dI/dt stressmark assembly (paper Figure 6).

A stressmark is a loop alternating a high-power and a low-power
instruction sequence, sized so the alternation happens at a target
stimulus frequency, optionally wrapped in TOD synchronization code:

    sync:  spin until TOD low bits match (every 4 ms, + programmed
           62.5 ns misalignment)
    loop:  [high-power sequence x R_hi]  -- duty * period
           [low-power sequence  x R_lo]  -- (1-duty) * period
           repeat for the configured number of consecutive ΔI events
    back to sync

Every knob of the paper's 'white-box' methodology is a field of
:class:`StressmarkSpec`: stimulus frequency, ΔI magnitude (through the
choice of high sequence), number of consecutive ΔI events, duty, and
alignment.  :meth:`DidtStressmark.current_program` compiles the
stressmark to its electrical behavior using the core's power model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import GenerationError
from ..isa.instruction import InstructionDef
from ..machine.tod import SYNC_INTERVAL, TOD_STEP
from ..machine.workload import CurrentProgram, SyncSpec
from ..mbench.codegen import emit_assembly
from ..mbench.loops import build_sequence_loop
from ..mbench.program import Program
from ..mbench.target import Target
from ..uarch.power import estimate_loop_power

__all__ = ["StressmarkSpec", "DidtStressmark", "StressmarkBuilder"]


@dataclass(frozen=True)
class StressmarkSpec:
    """Configuration of one dI/dt stressmark.

    Attributes
    ----------
    stimulus_freq_hz:
        Frequency of ΔI events (one high→low→high cycle per period).
    synchronize:
        Wrap the burst in TOD synchronization (every ``SYNC_INTERVAL``).
    misalignment:
        Programmed offset after each sync point; must be a multiple of
        the 62.5 ns TOD step.  Only meaningful when synchronized.
    n_events:
        Consecutive ΔI events per burst (between sync points).  The
        paper's default is one thousand.
    duty:
        Fraction of the period spent in the high-power phase.
    """

    stimulus_freq_hz: float
    synchronize: bool = False
    misalignment: float = 0.0
    n_events: int = 1000
    duty: float = 0.5

    def __post_init__(self) -> None:
        if self.stimulus_freq_hz <= 0:
            raise GenerationError("stimulus frequency must be positive")
        if self.n_events < 1:
            raise GenerationError("need at least one ΔI event per burst")
        if not 0.0 < self.duty < 1.0:
            raise GenerationError("duty must be in (0, 1)")
        if self.misalignment < 0:
            raise GenerationError("misalignment must be non-negative")
        if self.misalignment > 0:
            steps = self.misalignment / TOD_STEP
            if abs(steps - round(steps)) > 1e-6:
                raise GenerationError(
                    "misalignment must be a multiple of the 62.5 ns TOD step"
                )
        if not self.synchronize and self.misalignment > 0:
            raise GenerationError(
                "misalignment requires synchronization (it offsets the "
                "TOD spin-loop exit)"
            )


@dataclass
class DidtStressmark:
    """A generated stressmark: programs, powers, and its compiled
    electrical behavior."""

    spec: StressmarkSpec
    name: str
    high_body: tuple[InstructionDef, ...]
    low_body: tuple[InstructionDef, ...]
    high_repetitions: int
    low_repetitions: int
    high_power_w: float
    low_power_w: float
    program: Program = field(repr=False)
    vnom: float = 1.05
    rise_time: float = 2e-9

    #: Achieved stimulus frequency: repetition counts are integral, so
    #: the loop's real period can deviate from the request, most visibly
    #: near the feasibility limit (the paper's 100 MHz point).
    achieved_freq_hz: float = 0.0

    @property
    def delta_power_w(self) -> float:
        return self.high_power_w - self.low_power_w

    @property
    def delta_i(self) -> float:
        """ΔI of one event (A)."""
        return self.delta_power_w / self.vnom

    def current_program(self) -> CurrentProgram:
        """Compile to the electrical view the run engine consumes."""
        sync = None
        if self.spec.synchronize:
            sync = SyncSpec(
                offset=self.spec.misalignment,
                events_per_sync=self.spec.n_events,
                interval=SYNC_INTERVAL,
            )
        freq = self.achieved_freq_hz or self.spec.stimulus_freq_hz
        return CurrentProgram(
            name=self.name,
            i_low=self.low_power_w / self.vnom,
            i_high=self.high_power_w / self.vnom,
            freq_hz=freq,
            duty=self.spec.duty,
            rise_time=self.rise_time,
            sync=sync,
        )

    def assembly(self) -> str:
        """Assembler rendering of the stressmark loop."""
        return emit_assembly(self.program)


class StressmarkBuilder:
    """Builds stressmarks from a (high, low) sequence pair.

    The builder owns the phase-length computation: given the sequences'
    cycles-per-iteration, it sizes the repetition counts so one loop
    iteration spans one stimulus period with the requested duty.
    """

    def __init__(
        self,
        target: Target,
        high_sequence: tuple[InstructionDef, ...],
        low_sequence: tuple[InstructionDef, ...],
        name: str = "didt",
    ):
        if not high_sequence or not low_sequence:
            raise GenerationError("high and low sequences must be non-empty")
        self.target = target
        self.high_sequence = tuple(high_sequence)
        self.low_sequence = tuple(low_sequence)
        self.name = name
        model = target.energy_model
        self._high_estimate = estimate_loop_power(list(self.high_sequence), model)
        self._low_estimate = estimate_loop_power(list(self.low_sequence), model)
        if self._high_estimate.watts <= self._low_estimate.watts:
            raise GenerationError(
                "high sequence must out-consume the low sequence "
                f"({self._high_estimate.watts:.2f} W vs "
                f"{self._low_estimate.watts:.2f} W)"
            )
        self._high_cycles = self._high_estimate.profile.cycles
        self._low_cycles = self._low_estimate.profile.cycles

    def phase_repetitions(self, spec: StressmarkSpec) -> tuple[int, int]:
        """(high, low) sequence repetition counts for one period."""
        period_cycles = self.target.core.clock_hz / spec.stimulus_freq_hz
        high_cycles = period_cycles * spec.duty
        low_cycles = period_cycles * (1.0 - spec.duty)
        high_reps = max(int(round(high_cycles / self._high_cycles)), 1)
        low_reps = max(int(round(low_cycles / self._low_cycles)), 1)
        return high_reps, low_reps

    #: Cap on the number of sequence copies materialized per phase in
    #: the inspectable program.  Real low-frequency stressmarks wrap the
    #: phase in an outer count loop; the electrical behavior depends on
    #: the repetition *count*, which is kept exactly, not on the static
    #: body length.
    MATERIALIZE_CAP = 64

    def build(self, spec: StressmarkSpec) -> DidtStressmark:
        """Assemble the stressmark for *spec*."""
        high_reps, low_reps = self.phase_repetitions(spec)
        body = (
            self.high_sequence * min(high_reps, self.MATERIALIZE_CAP)
            + self.low_sequence * min(low_reps, self.MATERIALIZE_CAP)
        )
        program = build_sequence_loop(
            self.target.isa,
            body,
            unroll=1,
            name=f"{self.name}-{spec.stimulus_freq_hz:.6g}Hz",
            trip_count=spec.n_events if spec.synchronize else None,
        )
        achieved_cycles = (
            high_reps * self._high_cycles + low_reps * self._low_cycles
        )
        achieved_freq = self.target.core.clock_hz / achieved_cycles
        freq_tag = f"{spec.stimulus_freq_hz:.4g}"
        return DidtStressmark(
            spec=spec,
            name=f"{self.name}@{freq_tag}Hz"
            + ("+sync" if spec.synchronize else ""),
            high_body=self.high_sequence,
            low_body=self.low_sequence,
            high_repetitions=high_reps,
            low_repetitions=low_reps,
            high_power_w=self._high_estimate.watts,
            low_power_w=self._low_estimate.watts,
            program=program,
            vnom=self.target.core.vnom,
            rise_time=self.target.core.ramp_time,
            achieved_freq_hz=achieved_freq,
        )
