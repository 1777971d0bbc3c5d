"""Experiment drivers: one module per paper table/figure.

Each driver regenerates the rows/series of its table or figure on the
simulated platform and renders them as text; the tier-1 reproduction
contract (``tests/contract``) checks their full-fidelity exports, and
EXPERIMENTS.md records paper-vs-measured for each.

Use :func:`repro.experiments.registry.get_experiment` /
:func:`repro.experiments.registry.all_experiments` for programmatic
access, or the ``repro-noise`` CLI.
"""

from .registry import (
    ExperimentResult,
    all_experiments,
    compile_campaign,
    compile_family_campaign,
    compile_plan,
    get_experiment,
)
from .common import (
    ExperimentContext,
    context_for_spec,
    default_context,
    quick_context,
)

__all__ = [
    "ExperimentResult",
    "all_experiments",
    "compile_campaign",
    "compile_family_campaign",
    "compile_plan",
    "get_experiment",
    "ExperimentContext",
    "context_for_spec",
    "default_context",
    "quick_context",
]
