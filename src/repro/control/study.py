"""The closed-loop studies: controller-gain sweep and attack surface.

Both studies post-process ONE solved stimulus.  :func:`control_baseline`
declares that single nominal baseline run under
:data:`CONTROL_RUN_TAG` (the vmin-experiment pattern), so control
campaigns dedup and run on the fleet like everything else; a driver
executes it through the engine session (cache-addressed) and then
steps the closed loop on a
:class:`~repro.engine.stepping.SteppingSession` built from the *same*
``(mapping, options, run_tag)`` triple.  Because every built-in
controller actuates the supply bias only — a pure offset under the
linear PDN — each sweep point :meth:`rewind`s the session and re-steps
the already-solved waveforms: a whole gain sweep costs one transient
solve.

Each study also re-derives the monolithic result from the stepping
state (:meth:`SteppingSession.result`) and compares it to the engine
baseline *exactly* — the stepping ≡ monolithic acceptance check rides
along with every sweep.

The studies themselves cache nothing: every call builds a stepping
session and recomputes the verdict (the ``repro-noise control`` verb
relies on that).  The registered ``ctrl-gain``/``ctrl-attack`` drivers
(:mod:`repro.experiments.ctrl`) keep each returned dict as a result-cache
record keyed by the baseline run's fingerprint and the study's
parameters, so a replayed campaign steps nothing.
"""

from __future__ import annotations

from ..engine.stepping import SteppingSession
from ..machine.chip import Chip
from ..machine.runner import RunOptions, RunResult
from ..machine.workload import CurrentProgram
from ..measure.runit import RUnit, RUnitConfig
from ..plan.spec import Sweep
from .controllers import AdversarialUndervolter, IntegralPowerController
from .loop import SOLVER_LABEL, ClosedLoopRun

__all__ = [
    "CONTROL_RUN_TAG",
    "DEFAULT_GAINS",
    "DEFAULT_DEPTHS",
    "DEFAULT_DURATIONS",
    "control_baseline",
    "results_identical",
    "gain_sweep",
    "attack_surface",
]

#: The run tag every control study executes under — the baseline run
#: and the stepping session must agree byte-for-byte, so the baseline
#: run's fingerprint is shared across plan, CLI and serve paths.
CONTROL_RUN_TAG = "control"

#: Integral gains swept by the ``ctrl-gain`` study (Ki, bias volts per
#: unit power error per window): from sluggish to oscillatory.
DEFAULT_GAINS = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0)

#: Undervolt depths (0.5 % steps) and pulse durations (windows)
#: spanned by the ``ctrl-attack`` heatmap.
DEFAULT_DEPTHS = (5, 10, 15, 20, 25, 30)
DEFAULT_DURATIONS = (1, 2, 4)


def control_baseline(mapping: list[CurrentProgram | None]) -> Sweep:
    """A control study's single nominal baseline run (the closed loop
    itself is deterministic post-processing of that stimulus); the
    value is its :class:`RunResult`."""
    return Sweep(
        mappings=(tuple(mapping),),
        tags=(CONTROL_RUN_TAG,),
        finish=lambda results: results[0],
    )


def results_identical(a: RunResult, b: RunResult) -> bool:
    """Exact (tolerance-zero) equality of two run results' measurements."""
    if len(a.measurements) != len(b.measurements):
        return False
    return all(
        m.core == n.core
        and m.p2p_pct == n.p2p_pct
        and m.v_min == n.v_min
        and m.v_max == n.v_max
        and m.coherent_delta_i == n.coherent_delta_i
        for m, n in zip(a.measurements, b.measurements)
    )


def gain_sweep(
    chip: Chip,
    mapping: list[CurrentProgram | None],
    options: RunOptions | None = None,
    *,
    baseline: RunResult,
    gains: tuple[float, ...] = DEFAULT_GAINS,
    setpoint: float = 0.85,
    windows_per_segment: int = 8,
    runit_config: RUnitConfig | None = None,
) -> dict:
    """Droop/overshoot/settling-time vs integral-controller gain.

    One stepping session serves every gain (bias-only actuation keeps
    the solved segment blocks across :meth:`rewind`s).  Returns a JSON-safe
    dict: per-gain loop summaries plus the stepping ≡ monolithic
    equivalence verdict against *baseline* (the
    :func:`control_baseline` run's result).
    """
    stepping = SteppingSession(
        chip,
        mapping,
        options,
        run_tag=CONTROL_RUN_TAG,
        windows_per_segment=windows_per_segment,
    )
    points = []
    for gain in gains:
        stepping.rewind()
        controller = IntegralPowerController(
            chip.vnom, setpoint=setpoint, gain=float(gain)
        )
        loop = ClosedLoopRun(
            stepping,
            controller,
            runit=RUnit(runit_config or RUnitConfig(), chip.vnom),
        )
        summary = loop.run()
        summary["gain"] = float(gain)
        points.append(summary)
    # Bias never touches the nominal-supply sticky state, so the final
    # rewind+result must replay the monolithic baseline byte for byte.
    stepping.rewind()
    equivalent = results_identical(stepping.result(), baseline)
    return {
        "study": "gain_sweep",
        "run_tag": CONTROL_RUN_TAG,
        "setpoint": float(setpoint),
        "windows_per_segment": int(windows_per_segment),
        "windows": stepping.n_windows,
        "backend": SOLVER_LABEL,
        "baseline_worst_vmin": float(baseline.worst_vmin),
        "baseline_max_p2p": float(baseline.max_p2p),
        "stepping_equivalent": bool(equivalent),
        "points": points,
    }


def attack_surface(
    chip: Chip,
    mapping: list[CurrentProgram | None],
    options: RunOptions | None = None,
    *,
    baseline: RunResult,
    depths: tuple[int, ...] = DEFAULT_DEPTHS,
    durations: tuple[int, ...] = DEFAULT_DURATIONS,
    windows_per_segment: int = 8,
    runit_config: RUnitConfig | None = None,
) -> dict:
    """Vmin-violation heatmap over (undervolt depth, pulse duration,
    alignment with dI/dt stress).

    A probe pass finds the deepest-droop window; every (depth,
    duration) cell is then attacked twice — aligned to that window and
    unaligned (window 0) — and scored by R-Unit violations.  The
    returned frontier gives, per duration and alignment, the shallowest
    depth that produced a violation: the attack surface the guard-band
    must defend.  *baseline* is the :func:`control_baseline` run's
    result.
    """
    stepping = SteppingSession(
        chip,
        mapping,
        options,
        run_tag=CONTROL_RUN_TAG,
        windows_per_segment=windows_per_segment,
    )
    runit_config = runit_config or RUnitConfig()

    # Probe pass: the un-actuated droop profile locates the stress.
    probe = stepping.run_to_completion()
    stress_window = min(probe, key=lambda obs: obs.worst_vmin).index
    equivalent = results_identical(stepping.result(), baseline)

    cells = []
    for depth in depths:
        for duration in durations:
            for alignment, start in (
                ("aligned", stress_window),
                ("unaligned", 0),
            ):
                if alignment == "unaligned" and start == stress_window:
                    continue  # stress already at window 0: one cell
                stepping.rewind()
                agent = AdversarialUndervolter(
                    depth_steps=int(depth),
                    duration_windows=int(duration),
                    start_window=int(start),
                )
                loop = ClosedLoopRun(
                    stepping,
                    agent,
                    runit=RUnit(runit_config, chip.vnom),
                )
                summary = loop.run()
                cells.append(
                    {
                        "depth_steps": int(depth),
                        "duration_windows": int(duration),
                        "alignment": alignment,
                        "start_window": int(start),
                        "violations": summary["violations"],
                        "droop_v": summary["droop_v"],
                        "min_bias": summary["min_bias"],
                    }
                )

    frontier: dict[str, dict[str, int | None]] = {}
    for alignment in ("aligned", "unaligned"):
        for duration in durations:
            hits = [
                cell["depth_steps"]
                for cell in cells
                if cell["alignment"] == alignment
                and cell["duration_windows"] == duration
                and cell["violations"] > 0
            ]
            frontier.setdefault(alignment, {})[str(duration)] = (
                min(hits) if hits else None
            )
    return {
        "study": "attack_surface",
        "run_tag": CONTROL_RUN_TAG,
        "windows_per_segment": int(windows_per_segment),
        "windows": stepping.n_windows,
        "backend": SOLVER_LABEL,
        "stress_window": int(stress_window),
        "v_fail": float(runit_config.v_fail_frac * chip.vnom),
        "baseline_worst_vmin": float(baseline.worst_vmin),
        "stepping_equivalent": bool(equivalent),
        "cells": cells,
        "frontier": frontier,
    }
