"""End-to-end stressmark generation façade.

Wraps the full methodology (EPI profile → max/min/medium power
sequences → stressmark builder) behind one object with caching, so
experiments can ask for "the maximum dI/dt stressmark at 2 MHz,
synchronized, misaligned by 125 ns" in one call.

The three expensive outputs — the EPI profile, the max-power search
and the medium dilution — are content-addressed in the process-wide
engine :class:`~repro.engine.cache.ResultCache`, so a process whose
cache directory already holds them (``--cache-dir``) profiles and
searches nothing.  Each record is plain data (mnemonics, powers,
counts) that a hit rebuilds against ``target.isa``.
"""

from __future__ import annotations

from functools import cached_property

from ..engine.cache import global_cache
from ..engine.fingerprint import content_key
from ..errors import GenerationError
from ..mbench.target import Target, default_target
from ..measure.powermeter import PowerMeter
from .epi import EpiEntry, EpiProfile, generate_epi_profile
from .filters import FilterStats
from .mediumpower import DilutedSequence, medium_power_sequence
from .minpower import min_power_sequence
from .search import MaxPowerSearchResult, search_max_power_sequence
from .stressmark import DidtStressmark, StressmarkBuilder, StressmarkSpec

__all__ = ["StressmarkGenerator"]


class StressmarkGenerator:
    """One-stop generator for the reference target.

    All expensive artifacts (EPI profile, search result, builders) are
    computed once and cached on the instance; the EPI profile, the
    search result and the medium dilution are also read through the
    engine result cache (see :meth:`_record_key`).

    Parameters
    ----------
    target:
        Bound evaluation target; defaults to the reference platform,
        built on first read of :attr:`target` (so a process that never
        generates, such as ``serve``, builds no ISA).
    epi_repetitions:
        Loop repetitions for EPI profiling (paper skeleton: 4000).
        Tests lower this for speed; the ranking is unaffected.
    ipc_keep:
        Sequences surviving the IPC filter into power evaluation.
    """

    def __init__(
        self,
        target: Target | None = None,
        seed: int = 0,
        epi_repetitions: int = 400,
        ipc_keep: int = 1000,
    ):
        if target is not None:
            self.target = target
        self.seed = seed
        self.epi_repetitions = epi_repetitions
        self.ipc_keep = ipc_keep

    @cached_property
    def target(self) -> Target:
        """The reference target, built the first time it is read."""
        return default_target()

    @cached_property
    def meter(self) -> PowerMeter:
        return PowerMeter(self.target, seed=self.seed)

    def _record_key(self, output: str) -> str:
        """Content address of one cached output: the target's digest
        (every instruction definition and the core configuration), the
        meter's seed, noise and drift, the EPI repetition count and,
        for the outputs downstream of the search, ``ipc_keep``."""
        meter = self.meter
        parts: list[object] = [
            f"generator.{output}",
            self.target.digest,
            meter.seed,
            meter.noise_sigma,
            meter.temperature_drift,
            self.epi_repetitions,
        ]
        if output != "epi":
            parts.append(self.ipc_keep)
        return content_key(*parts)

    @cached_property
    def epi_profile(self) -> EpiProfile:
        """The full-ISA EPI profile (Table I source).  Its record is
        the rows ``(mnemonic, power_w, normalized_power, ipc)`` in rank
        order."""
        isa = self.target.isa
        return global_cache().get_or_compute(
            self._record_key("epi"),
            lambda: generate_epi_profile(
                self.target, meter=self.meter, repetitions=self.epi_repetitions
            ),
            lambda profile: [
                (e.mnemonic, e.power_w, e.normalized_power, e.ipc)
                for e in profile.entries
            ],
            lambda rows: EpiProfile(
                [
                    EpiEntry(0, isa[mnemonic], power, normalized, ipc)
                    for mnemonic, power, normalized, ipc in rows
                ]
            ),
        )

    @cached_property
    def max_power_result(self) -> MaxPowerSearchResult:
        """The Figure 5 search outcome.  Its record holds the winner's
        and the candidates' mnemonics, the measured powers and the
        funnel counts."""
        isa = self.target.isa

        def to_record(result: MaxPowerSearchResult) -> dict:
            return {
                "sequence": result.mnemonics,
                "power_w": result.power_w,
                "candidates": [inst.mnemonic for inst in result.candidates],
                "enumerated": result.enumerated,
                "microarch": (
                    result.microarch_stats.examined,
                    result.microarch_stats.accepted,
                ),
                "ipc": (result.ipc_stats.examined, result.ipc_stats.accepted),
                "evaluated": result.evaluated,
                "validation_powers": list(result.validation_powers),
            }

        def from_record(record: dict) -> MaxPowerSearchResult:
            return MaxPowerSearchResult(
                sequence=tuple(isa[m] for m in record["sequence"]),
                power_w=record["power_w"],
                candidates=[isa[m] for m in record["candidates"]],
                enumerated=record["enumerated"],
                microarch_stats=FilterStats(*record["microarch"]),
                ipc_stats=FilterStats(*record["ipc"]),
                evaluated=record["evaluated"],
                validation_powers=list(record["validation_powers"]),
            )

        return global_cache().get_or_compute(
            self._record_key("search"),
            lambda: search_max_power_sequence(
                self.target, self.epi_profile, meter=self.meter,
                ipc_keep=self.ipc_keep,
            ),
            to_record,
            from_record,
        )

    @property
    def max_sequence(self):
        return self.max_power_result.sequence

    @cached_property
    def min_sequence(self):
        return min_power_sequence(self.epi_profile)

    @cached_property
    def max_builder(self) -> StressmarkBuilder:
        return StressmarkBuilder(
            self.target, self.max_sequence, self.min_sequence, name="didt-max"
        )

    @cached_property
    def medium_dilution(self) -> DilutedSequence:
        """High phase of the medium dI/dt stressmark.  Its record is
        the copy counts and powers; the body is rebuilt from the max
        and min sequences."""

        def compute() -> DilutedSequence:
            builder = self.max_builder
            return medium_power_sequence(
                self.target,
                self.max_sequence,
                self.min_sequence,
                max_power_w=builder._high_estimate.watts,
                min_power_w=builder._low_estimate.watts,
            )

        def from_record(record: tuple) -> DilutedSequence:
            high, low, power_w, target_w = record
            return DilutedSequence(
                body=tuple(self.max_sequence) * high
                + tuple(self.min_sequence) * low,
                high_copies=high,
                low_copies=low,
                power_w=power_w,
                target_w=target_w,
            )

        return global_cache().get_or_compute(
            self._record_key("medium"),
            compute,
            lambda d: (d.high_copies, d.low_copies, d.power_w, d.target_w),
            from_record,
        )

    @cached_property
    def medium_builder(self) -> StressmarkBuilder:
        return StressmarkBuilder(
            self.target,
            self.medium_dilution.body,
            self.min_sequence,
            name="didt-med",
        )

    # ------------------------------------------------------------------
    def build(self, spec: StressmarkSpec, level: str = "max") -> DidtStressmark:
        """Build a stressmark at intensity *level* ('max' or 'medium')."""
        if level == "max":
            return self.max_builder.build(spec)
        if level == "medium":
            return self.medium_builder.build(spec)
        raise GenerationError(f"unknown stressmark level {level!r}")

    def max_didt(
        self,
        freq_hz: float,
        synchronize: bool = False,
        misalignment: float = 0.0,
        n_events: int = 1000,
    ) -> DidtStressmark:
        """Convenience: maximum dI/dt stressmark."""
        return self.build(
            StressmarkSpec(
                stimulus_freq_hz=freq_hz,
                synchronize=synchronize,
                misalignment=misalignment,
                n_events=n_events,
            ),
            level="max",
        )

    def medium_didt(
        self,
        freq_hz: float,
        synchronize: bool = False,
        misalignment: float = 0.0,
        n_events: int = 1000,
    ) -> DidtStressmark:
        """Convenience: medium dI/dt stressmark (half the maximum ΔI)."""
        return self.build(
            StressmarkSpec(
                stimulus_freq_hz=freq_hz,
                synchronize=synchronize,
                misalignment=misalignment,
                n_events=n_events,
            ),
            level="medium",
        )
