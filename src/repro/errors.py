"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the failing subsystem.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "NetlistError",
    "SolverError",
    "IsaError",
    "UarchError",
    "GenerationError",
    "MeasurementError",
    "ExperimentError",
    "GuardbandProfileError",
    "ConfigError",
    "ConcurrencyError",
    "ControlError",
    "ExecutionError",
    "RunTimeoutError",
    "ProtocolError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class NetlistError(ReproError):
    """The PDN netlist is malformed (unknown node, invalid element value,
    disconnected graph, missing capacitor on an internal node, ...)."""


class SolverError(ReproError):
    """A PDN solver failed (singular system, non-finite solution,
    unsupported time base, ...)."""


class IsaError(ReproError):
    """An ISA definition problem: duplicate mnemonic, unknown instruction,
    invalid operand specification, ..."""


class UarchError(ReproError):
    """A microarchitecture-model problem: unknown functional unit, invalid
    dispatch configuration, sequence that cannot be scheduled, ..."""


class GenerationError(ReproError):
    """Stressmark or microbenchmark generation failed (empty candidate
    pool, infeasible stimulus frequency, inconsistent knob settings)."""


class MeasurementError(ReproError):
    """A measurement substrate was misused (skitter window empty,
    Vmin search exhausted its bias range, ...)."""


class ExperimentError(ReproError):
    """An experiment driver failed or was queried for an unknown id."""


class GuardbandProfileError(ExperimentError):
    """A guard-band utilization profile is unusable: empty, a single
    degenerate entry, negative occupancy, or fractions that do not sum
    to one — savings computed from it would be meaningless."""


class ControlError(ReproError):
    """A closed-loop control session was misused (stepping past the end
    of the run, actuating a finished session, unknown or expired serve
    session id, invalid actuation)."""


class ConcurrencyError(ReproError):
    """Two live writers raced for the same durable resource (e.g. two
    processes holding one campaign manifest's writer lock)."""


class ExecutionError(ReproError):
    """A run could not be completed by the execution layer even after
    its retry budget was exhausted (worker crash, persistent exception,
    repeated timeout).  Carries the structured
    :class:`~repro.engine.resilience.RunFailure` records when raised by
    the engine."""

    def __init__(self, message: str, failures: list | None = None):
        super().__init__(message)
        self.failures = failures or []


class RunTimeoutError(ExecutionError):
    """A single run exceeded its per-run wall-clock budget
    (``run_timeout_s``)."""


class ProtocolError(ReproError):
    """A malformed simulation-service request or reply (unparseable
    JSON line, unknown field, non-servable option)."""

