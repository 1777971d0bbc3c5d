"""``repro.control`` — the closed-loop simulation subsystem.

The stack, bottom-up:

* :class:`~repro.engine.stepping.SteppingSession` (engine layer) — the
  observe/actuate window loop over one mapping run: each segment is
  solved once by the chip's compiled kernel and stepped as slices of
  that block, so it is bit-identical to the monolithic solve; the one
  actuation is the supply bias;
* :class:`Controller` implementations (this package) — the integral
  power regulator, the paper's dynamic guard-band, and the adversarial
  undervolter;
* :class:`ClosedLoopRun` — the loop binding, R-Unit violation
  accounting and summary metrics;
* :mod:`repro.control.study` — the ``ctrl-gain`` / ``ctrl-attack``
  studies over one declared baseline run (CLI- and serve-drivable).

See DESIGN.md §15 for the architecture and the state-carry invariant.
"""

from .api import Actuation, Controller, WindowObservation
from .controllers import (
    AdversarialUndervolter,
    DynamicGuardbandController,
    IntegralPowerController,
    controller_from_spec,
)
from .loop import SOLVER_LABEL, ClosedLoopRun, loop_summary
from .study import (
    CONTROL_RUN_TAG,
    attack_surface,
    control_baseline,
    gain_sweep,
    results_identical,
)

__all__ = [
    "Actuation",
    "Controller",
    "WindowObservation",
    "IntegralPowerController",
    "DynamicGuardbandController",
    "AdversarialUndervolter",
    "controller_from_spec",
    "ClosedLoopRun",
    "loop_summary",
    "SOLVER_LABEL",
    "CONTROL_RUN_TAG",
    "control_baseline",
    "gain_sweep",
    "attack_surface",
    "results_identical",
]
