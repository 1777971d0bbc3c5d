"""``repro.engine`` — the unified simulation-execution layer.

All sweeps in the library run through a :class:`SimulationSession`:
it wraps the raw :class:`~repro.machine.runner.ChipRunner` with
content-addressed result caching (:mod:`repro.engine.cache`), optional
process-pool fan-out of independent runs (:mod:`repro.engine.executor`)
and telemetry (:mod:`repro.obs`, the structured observability layer).
See DESIGN.md §5 and the module docstrings for the layering.
"""

from .cache import ResultCache, configure_cache, default_cache_dir, global_cache
from .campaign import CampaignManifest
from .executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
    resolve_jobs,
)
from .fingerprint import (
    canonical,
    chip_fingerprint,
    content_key,
    is_deterministic_mapping,
    run_fingerprint,
)
from .resilience import (
    GuardedOutcome,
    RetryPolicy,
    RunFailure,
    call_with_timeout,
    guarded_call,
)
from .session import SimulationSession
from .stepping import Actuation, SteppingSession, WindowObservation

__all__ = [
    "SimulationSession",
    "SteppingSession",
    "Actuation",
    "WindowObservation",
    "ResultCache",
    "global_cache",
    "configure_cache",
    "default_cache_dir",
    "CampaignManifest",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "resolve_jobs",
    "RetryPolicy",
    "RunFailure",
    "GuardedOutcome",
    "guarded_call",
    "call_with_timeout",
    "canonical",
    "chip_fingerprint",
    "content_key",
    "run_fingerprint",
    "is_deterministic_mapping",
]
