"""Figure 15 — noise-reduction opportunity of noise-aware workload
mapping.

For each number of stressmarks to schedule (0–6), every core placement
is executed; the gap between the worst and the best placement's
worst-case noise is the headroom a noise-aware mapper can claim.  The
gap peaks at intermediate counts (2–4 workloads) and vanishes at the
extremes, where there is no placement freedom.
"""

from __future__ import annotations

from ..analysis.mapping import mapping_extremes
from ..analysis.report import render_table
from .common import ExperimentContext
from .registry import ExperimentResult, register


@register("fig15", "Worst-case noise reduction via workload mapping")
def run(context: ExperimentContext):
    program = context.generator.max_didt(
        freq_hz=context.resonant_freq_hz, synchronize=True
    ).current_program()
    studies = yield mapping_extremes(
        context.chip, program,
        workload_counts=list(range(0, context.chip.n_cores + 1)),
    )
    rows = []
    deltas = {}
    for count in sorted(studies):
        study = studies[count]
        best = study.best
        worst = study.worst
        deltas[count] = study.reduction_opportunity
        rows.append(
            [
                count,
                f"{worst.worst_noise:.1f}",
                "{" + ",".join(map(str, worst.cores)) + "}",
                f"{best.worst_noise:.1f}",
                "{" + ",".join(map(str, best.cores)) + "}",
                f"{study.reduction_opportunity:.1f}",
            ]
        )
    text = render_table(
        ["#workloads", "worst mapping", "cores", "best mapping", "cores", "reduction"],
        rows,
        title="Noise-aware workload mapping opportunity (paper Fig. 15)",
    )
    mid = max(deltas.get(k, 0.0) for k in (2, 3, 4))
    data = {
        "reduction_by_count": deltas,
        "mid_count_reduction": mid,
        "extremes_have_no_freedom": deltas.get(0, 0.0) == 0.0
        and deltas.get(context.chip.n_cores, 0.0) == 0.0,
        "studies": studies,
    }
    return ExperimentResult("fig15", "Mapping opportunity per workload count", text, data)
