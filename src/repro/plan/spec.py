"""Declarative run specifications: what a figure *would* execute.

A :class:`PlannedRun` names one chip run — the per-core mapping, the
run tag, the fully-resolved :class:`~repro.machine.runner.RunOptions`
and the figures that consume its result — without executing anything.
A :class:`RunPlan` is an ordered list of planned runs over one chip:
the declarative form of a sweep or an experiment driver's workload.

A :class:`Sweep` is one study's runs declared once: its mappings and
run tags plus how their results reduce to the study's value.
:meth:`Sweep.plan` lists the runs without executing anything and
:meth:`Sweep.run` executes them, so planning and execution read the
same declaration.

Plans are *fingerprintable*: every planned run has the same content
address (:func:`repro.engine.fingerprint.run_fingerprint`) the engine
cache uses at execution time, so the planner can count, deduplicate
and cost a campaign **before** a single PDN solve happens — and
the executed campaign provably runs exactly the planned set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)

from ..engine.fingerprint import canonical, content_key, run_fingerprint
from ..engine.resilience import RunFailure
from ..errors import ExecutionError
from ..machine.chip import Chip, ChipConfig
from ..machine.runner import RunOptions
from ..machine.workload import CurrentProgram

if TYPE_CHECKING:
    from ..engine.session import SimulationSession

__all__ = ["PlannedRun", "RunPlan", "Sweep", "chip_identity"]


def chip_identity(config: ChipConfig, chip_id: int = 0) -> str:
    """The chip fingerprint a plan binds to, computed from the
    configuration alone — identical to
    :func:`~repro.engine.fingerprint.chip_fingerprint` of the built
    chip, but available without paying for the modal decomposition
    (planning must stay cheap)."""
    return canonical((Chip.__name__, config, chip_id))


@dataclass(frozen=True)
class PlannedRun:
    """One declarative run: mapping + options + tag + consumers.

    Attributes
    ----------
    mapping:
        The per-core current programs (``None`` = unloaded core).
    tag:
        The run tag the executing sweep will use.  Part of the content
        address only for phase-randomized mappings, exactly as at
        execution time.
    options:
        The fully-resolved run options this run executes under
        (sweep-level overrides already applied).
    figures:
        Ids of the figures/experiments that consume this run's result.
    """

    mapping: tuple[CurrentProgram | None, ...]
    tag: object
    options: RunOptions
    figures: frozenset[str] = frozenset()

    def fingerprint(self, chip_fp: str) -> str:
        """The content address this run will have under a session on a
        chip with fingerprint *chip_fp* — byte-identical to what
        :meth:`SimulationSession.fingerprint` computes at execution
        time, which is what makes pre-execution dedup honest."""
        return run_fingerprint(chip_fp, list(self.mapping), self.options, self.tag)

    def with_figures(self, figures: Iterable[str]) -> "PlannedRun":
        """A copy tagged with the union of consumers."""
        return PlannedRun(
            mapping=self.mapping,
            tag=self.tag,
            options=self.options,
            figures=self.figures | frozenset(figures),
        )


@dataclass
class RunPlan:
    """The declarative workload of one figure (or one sweep): an
    ordered list of :class:`PlannedRun` bound to one chip identity."""

    chip_fp: str
    runs: list[PlannedRun] = field(default_factory=list)

    @classmethod
    def for_chip(cls, chip: Chip) -> "RunPlan":
        return cls(chip_fp=chip_identity(chip.config, chip.chip_id))

    def add(
        self,
        mapping: Sequence[CurrentProgram | None],
        tag: object,
        options: RunOptions,
        figure: str | None = None,
    ) -> None:
        self.runs.append(
            PlannedRun(
                mapping=tuple(mapping),
                tag=tag,
                options=options,
                figures=frozenset({figure} if figure else ()),
            )
        )

    def extend(self, other: "RunPlan") -> None:
        """Append *other*'s runs (same chip identity required)."""
        if other.chip_fp != self.chip_fp:
            raise ValueError("cannot extend a plan across chip identities")
        self.runs.extend(other.runs)

    def tagged(self, figure: str) -> "RunPlan":
        """A copy whose every run is attributed to *figure*."""
        return RunPlan(
            chip_fp=self.chip_fp,
            runs=[run.with_figures({figure}) for run in self.runs],
        )

    def fingerprints(self) -> list[str]:
        """Per-run content addresses, in plan order."""
        return [run.fingerprint(self.chip_fp) for run in self.runs]

    def fingerprint(self) -> str:
        """Content address of the whole plan: the chip identity plus
        the *sorted set* of run fingerprints, so two plans requesting
        the same work in different orders (or with internal duplicates)
        address identically — stable across processes and platforms."""
        return content_key(self.chip_fp, sorted(set(self.fingerprints())))

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[PlannedRun]:
        return iter(self.runs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunPlan({len(self.runs)} runs)"


@dataclass(frozen=True)
class Sweep:
    """One study's chip runs, declared once.

    Attributes
    ----------
    mappings, tags:
        The runs in execution order, one run tag per mapping.
    finish:
        Reduces the batch's results, in run order, to the study's value.
    overrides:
        Run-option overrides the runs execute under (the scope
        capture's waveform collection), applied to a copy of the
        session's options.
    name:
        Names a sweep that can lose points.  Under
        ``on_failure="collect"`` its failed runs reach *finish* as
        ``None``, each counted (``engine.points_dropped``) and traced
        (``point.dropped``).  A *finish* that cannot make the study's
        value from what solved raises
        :class:`~repro.errors.ExecutionError` with the reason, and the
        sweep re-raises it with its name and its failed runs.  An
        unnamed sweep needs every run, so a failed run raises
        :class:`~repro.errors.ExecutionError`.
    """

    mappings: tuple
    tags: tuple
    finish: Callable[[list], object]
    overrides: Mapping[str, object] = field(default_factory=dict)
    name: str | None = None

    def plan(self, chip: Chip, options: RunOptions) -> RunPlan:
        """The runs this sweep would execute on *chip* under *options*,
        without executing anything."""
        options = replace(options, **self.overrides)
        plan = RunPlan.for_chip(chip)
        for mapping, tag in zip(self.mappings, self.tags):
            plan.add(mapping, tag, options)
        return plan

    def run(self, session: "SimulationSession"):
        """Execute the runs as one :meth:`~SimulationSession.run_many`
        batch on *session* (cached runs replay) and return the study's
        value."""
        if self.overrides:
            session = session.derive(**self.overrides)
        results = session.run_many(self.mappings, self.tags)
        failures = [
            result for result in results if isinstance(result, RunFailure)
        ]

        def failed(reason: str) -> ExecutionError:
            return ExecutionError(
                f"{len(failures)} of {len(results)} run(s) failed and "
                f"{reason}: "
                + "; ".join(failure.describe() for failure in failures),
                failures,
            )

        if failures and self.name is None:
            raise failed("this study cannot drop points")
        for i, result in enumerate(results):
            if isinstance(result, RunFailure):
                session.telemetry.increment("engine.points_dropped")
                session.telemetry.emit(
                    "point.dropped",
                    sweep=self.name,
                    run=self.tags[i],
                    error=f"{result.error_type}: {result.message}",
                )
                results[i] = None
        try:
            return self.finish(results)
        except ExecutionError as error:
            raise failed(
                f"sweep {self.name!r} cannot yield its value ({error})"
            ) from None
