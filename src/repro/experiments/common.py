"""Shared experiment context: the reference platform, built once.

The expensive artifacts are shared at two levels.  The heavyweight
*platform* pieces — the stressmark generator (EPI profile + max-power
search) and the chip (modal decomposition + response library) — are
memoized per parameter set at module level, so every context over the
same platform reuses them.  The *runs* themselves are deduplicated by
the engine's content-addressed result cache: the ΔI mapping dataset
shared by Figures 11 and 13a, the unsynchronized frequency sweep shared
by Figures 7a and 9, and the placement studies shared by Figures 14/15
are each solved once per campaign no matter how many figures (or
repeated context factories) ask for them.

``context_for_spec()`` is *the* context factory: it binds a declarative
:class:`~repro.chips.ChipSpec` (the reference spec when unspecified) to
a fidelity tier, building the member chip through the process-wide
:func:`~repro.chips.build_chip` memo so every context over the same
chip fingerprint shares the heavy solver artifacts.
``default_context()`` / ``quick_context()`` are thin wrappers over it;
each call returns a fresh :class:`ExperimentContext` with fresh
:class:`RunOptions`, so mutating one caller's context (e.g. flipping
``collect_waveforms``) can no longer leak into another's.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

from ..analysis.sensitivity import sweep_delta_i_mappings
from ..chips import ChipSpec, build_chip, reference_spec
from ..core.generator import StressmarkGenerator
from ..engine import SimulationSession
from ..machine.chip import Chip
from ..machine.runner import ChipRunner, RunOptions
from ..plan.spec import Sweep

__all__ = [
    "ExperimentContext",
    "context_for_spec",
    "default_context",
    "quick_context",
]

#: The resonant stimulus frequency of the reference chip (its first
#: droop sits at ~2.6 MHz; the paper's platform showed ~2 MHz).
RESONANT_FREQ_HZ = 2.6e6


@dataclass
class ExperimentContext:
    """Bound platform + tuning knobs for one experiment suite run."""

    generator: StressmarkGenerator
    chip: Chip
    options: RunOptions
    freq_points_per_decade: int = 5
    delta_i_placements: int = 4
    misalignment_assignments: int = 6
    resonant_freq_hz: float = RESONANT_FREQ_HZ
    #: The declarative spec this context's chip was compiled from
    #: (``None`` for contexts built around a hand-made chip).
    spec: ChipSpec | None = None
    #: ``"raise"`` aborts an experiment on a permanently failed run;
    #: ``"collect"`` (the CLI's ``--on-failure collect``) keeps partial
    #: sweeps — named sweeps drop and trace the failed points, and a
    #: study that needs every run still fails.
    on_failure: str = "raise"
    _session: SimulationSession | None = field(default=None, repr=False)

    @property
    def session(self) -> SimulationSession:
        """The engine session every run of this context executes
        through (built over the process-shared result cache and the
        environment-selected executor)."""
        if self._session is None:
            self._session = SimulationSession(
                self.chip, self.options, on_failure=self.on_failure
            )
        return self._session

    @property
    def runner(self) -> ChipRunner:
        """The raw (uncached) runner underneath the session."""
        return self.session.runner

    def delta_i_sweep(self) -> Sweep:
        """The ΔI workload-mapping dataset (Figures 11 and 13a): the one
        sweep Figures 11a, 11b and 13a all yield, so the campaign
        planner collapses their requests to one set of unique runs and
        the engine cache solves them once."""
        return sweep_delta_i_mappings(
            self.generator,
            self.chip,
            freq_hz=self.resonant_freq_hz,
            placements_per_distribution=self.delta_i_placements,
        )


@lru_cache(maxsize=4)
def _shared_generator(
    epi_repetitions: int, ipc_keep: int | None = None
) -> StressmarkGenerator:
    """Process-wide generator memo (EPI profile + search are pure
    functions of these parameters)."""
    if ipc_keep is None:
        return StressmarkGenerator(epi_repetitions=epi_repetitions)
    return StressmarkGenerator(
        epi_repetitions=epi_repetitions, ipc_keep=ipc_keep
    )


def _env_on_failure() -> str:
    """Failure mode from ``$REPRO_ON_FAILURE`` (the ``--on-failure``
    CLI flag exports it); ``raise`` when unset."""
    return os.environ.get("REPRO_ON_FAILURE", "").strip().lower() or "raise"


def context_for_spec(
    spec: ChipSpec | None = None, *, quick: bool = False
) -> ExperimentContext:
    """The spec-parameterized context factory.

    Binds *spec* (the reference spec when ``None``) to the requested
    fidelity tier.  The chip is built through the process-wide
    :func:`~repro.chips.build_chip` memo, so every context over the
    same chip fingerprint — default or family member — shares one set
    of heavy solver artifacts, and the default spec's contexts are
    bit-for-bit the contexts the pre-family factories produced.

    ``quick=True`` selects the reduced-cost tier for tests and smoke
    runs: shorter EPI loops, fewer segments and sweep points.  Shapes
    are preserved; absolute readings may shift by a quantization step.
    """
    spec = spec if spec is not None else reference_spec()
    if quick:
        return ExperimentContext(
            generator=_shared_generator(epi_repetitions=80, ipc_keep=200),
            chip=build_chip(spec),
            options=RunOptions(segments=4, base_samples=1536),
            freq_points_per_decade=3,
            delta_i_placements=2,
            misalignment_assignments=3,
            spec=spec,
            on_failure=_env_on_failure(),
        )
    return ExperimentContext(
        generator=_shared_generator(epi_repetitions=400),
        chip=build_chip(spec),
        options=RunOptions(segments=8),
        spec=spec,
        on_failure=_env_on_failure(),
    )


def default_context() -> ExperimentContext:
    """A full-fidelity context over the reference chip (benchmark
    harness fidelity) — :func:`context_for_spec` with the defaults.
    """
    return context_for_spec()


def quick_context() -> ExperimentContext:
    """A reduced-cost context over the reference chip —
    :func:`context_for_spec` with ``quick=True``.
    """
    return context_for_spec(quick=True)
