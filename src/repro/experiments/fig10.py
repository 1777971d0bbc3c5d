"""Figure 10 — noise sensitivity to ΔI event misalignment.

Stressmarks at the resonant stimulus frequency synchronize every 4 ms
with programmed offsets spread evenly over [0, max-misalignment] in
62.5 ns TOD steps; per-core noise is averaged across offset→core
assignments.  A small misalignment collapses most of the
synchronization effect.
"""

from __future__ import annotations

from ..analysis.report import render_series
from ..analysis.sensitivity import sweep_misalignment
from ..machine.tod import TOD_STEP
from .common import ExperimentContext
from .registry import ExperimentResult, register


@register("fig10", "Noise vs. maximum allowed ΔI misalignment")
def run(context: ExperimentContext):
    misalignments = [k * TOD_STEP for k in range(0, 11)]  # 0 .. 625 ns
    results = yield sweep_misalignment(
        context.generator,
        context.chip,
        misalignments,
        freq_hz=context.resonant_freq_hz,
        assignments_sample=context.misalignment_assignments,
    )
    xs = [f"{m * 1e9:.1f}ns" for m in misalignments]
    series = {
        f"core{c} %p2p": [results[m][c] for m in misalignments]
        for c in range(context.chip.n_cores)
    }
    text = render_series(
        "max misalignment", xs, series,
        title="Average noise vs. maximum allowed misalignment (paper Fig. 10)",
    )
    aligned = max(results[misalignments[0]])
    one_step = max(results[misalignments[1]])
    tail = max(max(results[m]) for m in misalignments[4:])
    data = {
        "misalignments_s": misalignments,
        "noise_by_misalignment": {m: results[m] for m in misalignments},
        "aligned_max": aligned,
        "one_step_max": one_step,
        "tail_max": tail,
        "one_step_drop": aligned - one_step,
    }
    return ExperimentResult("fig10", "Noise vs. misalignment", text, data)
