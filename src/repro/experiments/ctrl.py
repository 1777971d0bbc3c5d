"""Closed-loop control studies (``ctrl-gain``, ``ctrl-attack``).

Not a paper figure: the execution of the paper's §VII-B optimization
opportunity (and its adversarial dual) as online controllers stepping
the transient engine — see :mod:`repro.control.study`.  Both drivers
yield a single nominal baseline run (shared with every other study of
the same worst-case mapping) and post-process it through the stepping
engine, carrying the stepping ≡ monolithic equivalence verdict in
their exported data.

A study's dict is a record in the session's result cache, keyed by the
baseline run's fingerprint and the study's parameters
(:func:`study_record`).  The miss that writes it steps the loop and
computes the verdict; a replay reads it back and builds no stepping
session, so a replayed campaign solves nothing.  The ``repro-noise
control`` verb calls the studies directly and always recomputes.
"""

from __future__ import annotations

from typing import Callable

from ..analysis.report import render_table
from ..control.study import (
    CONTROL_RUN_TAG,
    DEFAULT_DEPTHS,
    DEFAULT_DURATIONS,
    DEFAULT_GAINS,
    attack_surface,
    control_baseline,
    gain_sweep,
)
from ..engine.fingerprint import content_key
from ..machine.workload import CurrentProgram
from ..measure.runit import RUnitConfig
from .common import ExperimentContext
from .registry import ExperimentResult, register

#: The parameters the registered studies run with.  Each driver passes
#: every one of them to its study and keys its record by the same
#: dict, so the call and the key cannot drift apart.
GAIN_SWEEP_PARAMETERS = {
    "gains": DEFAULT_GAINS,
    "setpoint": 0.85,
    "windows_per_segment": 8,
    "runit_config": RUnitConfig(),
}
ATTACK_SURFACE_PARAMETERS = {
    "depths": DEFAULT_DEPTHS,
    "durations": DEFAULT_DURATIONS,
    "windows_per_segment": 8,
    "runit_config": RUnitConfig(),
}


def control_mapping(context: ExperimentContext) -> list[CurrentProgram | None]:
    """The mapping every control study regulates: the synchronized
    max-dI/dt stressmark at the resonant frequency on all cores — the
    worst case the guard band is provisioned for."""
    mark = context.generator.max_didt(
        freq_hz=context.resonant_freq_hz, synchronize=True
    )
    return [mark.current_program()] * context.chip.n_cores


def gain_table(data: dict) -> str:
    """Rendered gain-sweep rows (shared by the registered driver and
    the ``repro-noise control`` verb — identical output both ways)."""
    rows = [
        [
            f"{point['gain']:g}",
            f"{point['droop_v'] * 1e3:.1f}",
            f"{point['overshoot_v'] * 1e3:.1f}",
            str(point["settling_window"]),
            str(point["transitions"]),
            str(point["violations"]),
            f"{point['final_bias']:.3f}",
        ]
        for point in data["points"]
    ]
    return render_table(
        [
            "gain Ki",
            "droop (mV)",
            "overshoot (mV)",
            "settling (win)",
            "transitions",
            "violations",
            "final bias",
        ],
        rows,
        title=(
            "Integral power regulator vs gain "
            f"(backend {data['backend']}, "
            f"stepping≡monolithic: {data['stepping_equivalent']})"
        ),
    )


def attack_table(data: dict) -> str:
    """Rendered attack-surface rows (shared by the registered driver
    and the ``repro-noise control`` verb)."""
    rows = [
        [
            str(cell["depth_steps"]),
            str(cell["duration_windows"]),
            cell["alignment"],
            str(cell["violations"]),
            f"{cell['droop_v'] * 1e3:.1f}",
        ]
        for cell in data["cells"]
    ]
    return render_table(
        [
            "depth (steps)",
            "duration (win)",
            "alignment",
            "violations",
            "droop (mV)",
        ],
        rows,
        title=(
            "Undervolting attack surface "
            f"(stress window {data['stress_window']}, "
            f"v_fail {data['v_fail']:.3f} V, "
            f"stepping≡monolithic: {data['stepping_equivalent']})"
        ),
    )


def study_record(
    context: ExperimentContext,
    study: str,
    mapping: list[CurrentProgram | None],
    parameters: dict,
    compute: Callable[[], dict],
) -> dict:
    """The dict of control *study* (``"gain_sweep"`` or
    ``"attack_surface"``) over *mapping* with *parameters*: read from
    the session's result cache, or *compute*d and published there.
    The key is the baseline run's fingerprint plus *parameters*, so a
    changed parameter, chip or run option misses."""
    session = context.session
    key = content_key(
        f"control.{study}",
        session.fingerprint(mapping, CONTROL_RUN_TAG),
        parameters,
    )
    return session.cache.get_or_compute(key, compute)


@register("ctrl-gain", "Closed-loop integral regulator: gain sweep")
def run_gain(context: ExperimentContext):
    mapping = control_mapping(context)
    baseline = yield control_baseline(mapping)
    parameters = GAIN_SWEEP_PARAMETERS
    data = study_record(
        context,
        "gain_sweep",
        mapping,
        parameters,
        lambda: gain_sweep(
            context.chip,
            mapping,
            context.options,
            baseline=baseline,
            **parameters,
        ),
    )
    return ExperimentResult(
        "ctrl-gain",
        "Closed-loop integral regulator: gain sweep",
        gain_table(data),
        data,
    )


@register("ctrl-attack", "Adversarial undervolting attack surface")
def run_attack(context: ExperimentContext):
    mapping = control_mapping(context)
    baseline = yield control_baseline(mapping)
    parameters = ATTACK_SURFACE_PARAMETERS
    data = study_record(
        context,
        "attack_surface",
        mapping,
        parameters,
        lambda: attack_surface(
            context.chip,
            mapping,
            context.options,
            baseline=baseline,
            **parameters,
        ),
    )
    return ExperimentResult(
        "ctrl-attack",
        "Adversarial undervolting attack surface",
        attack_table(data),
        data,
    )
