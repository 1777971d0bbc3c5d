"""The controller contract of the closed-loop subsystem.

A :class:`Controller` rides a
:class:`~repro.engine.stepping.SteppingSession`: after every stepped
window it receives the :class:`~repro.engine.stepping.WindowObservation`
and may answer with an :class:`~repro.engine.stepping.Actuation`, which
the loop applies before the *next* window is stepped — the one-window
actuation latency a real management loop has.  ``prime()`` lets a
controller act before the first window (e.g. an attack aligned to
window zero).

Controllers are deterministic functions of the observation stream:
the same session stimulus and controller parameters produce the same
actuations, observations and summary on every path that drives the
loop (in-process, CLI, plan-compiled experiment, serve session verbs)
— the property the acceptance suite pins.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..engine.stepping import Actuation, WindowObservation

__all__ = ["Controller", "Actuation", "WindowObservation"]


class Controller(ABC):
    """One closed-loop decision policy."""

    #: Wire-facing name; concrete classes override.
    kind = "controller"

    def prime(self) -> Actuation | None:
        """Actuation applied before the first window (default none)."""
        return None

    @abstractmethod
    def observe(self, window: WindowObservation) -> Actuation | None:
        """Digest one window; return the actuation for the next window
        (or ``None`` to leave the knobs alone)."""

    def reset(self) -> None:
        """Return to the initial state (start of a new loop)."""

    def summary(self) -> dict:
        """JSON-safe controller-internal diagnostics."""
        return {}
