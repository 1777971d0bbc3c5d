"""Figure 11 — noise sensitivity to ΔI magnitude and source
distribution.

(a) maximum per-core noise vs. the percentage of the chip's maximum ΔI,
    across workload mappings of {idle, medium, max} dI/dt stressmarks;
    noise grows with ΔI, and the achievable ΔI is bounded by the number
    of active cores.
(b) the same dataset grouped by workload distribution (#max-#medium):
    spreading the ΔI sources matters far less than the total ΔI.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..analysis.report import render_table
from .common import ExperimentContext
from .registry import ExperimentResult, register


@register("fig11a", "Max noise vs. % of maximum ΔI across mappings")
def run_fig11a(context: ExperimentContext):
    points = yield context.delta_i_sweep()
    # Max noise observed at each ΔI level, with the active-core count
    # (the paper's dotted regions).
    by_delta: dict[float, list] = defaultdict(list)
    for point in points:
        by_delta[round(point.delta_i_pct, 1)].append(point)
    rows = []
    scatter = []
    for delta_pct in sorted(by_delta):
        bucket = by_delta[delta_pct]
        worst = max(p.max_p2p for p in bucket)
        min_cores = min(p.active_cores for p in bucket)
        rows.append([f"{delta_pct:.1f}", f"{worst:.1f}", min_cores])
        scatter.append((delta_pct, worst, min_cores))
    text = render_table(
        ["% of max ΔI", "max %p2p", "min active cores"], rows,
        title="Noise vs. ΔI magnitude (paper Fig. 11a)",
    )
    deltas = np.array([s[0] for s in scatter])
    worsts = np.array([s[1] for s in scatter])
    monotone_corr = float(np.corrcoef(deltas, worsts)[0, 1]) if len(scatter) > 2 else 1.0
    near60 = [s for s in scatter if 50 <= s[0] <= 70]
    data = {
        "scatter": scatter,
        "points": points,
        "noise_rises_with_delta_i": monotone_corr > 0.9,
        "noise_at_60pct": max((s[1] for s in near60), default=None),
        "max_noise": float(worsts.max()) if len(scatter) else 0.0,
    }
    return ExperimentResult("fig11a", "Noise vs. ΔI magnitude", text, data)


@register("fig11b", "Average noise vs. workload distribution")
def run_fig11b(context: ExperimentContext):
    points = yield context.delta_i_sweep()
    rows = []
    by_distribution = {}
    for point in points:
        by_distribution.setdefault(point.distribution, []).append(point)
    for distribution in sorted(by_distribution):
        bucket = by_distribution[distribution]
        avg = float(np.mean([np.mean(p.p2p_by_core) for p in bucket]))
        delta = bucket[0].delta_i_pct
        label = f"{distribution[0]}-{distribution[1]}"
        rows.append([label, f"{delta:.1f}", f"{avg:.1f}"])
        by_distribution[distribution] = (delta, avg)
    text = render_table(
        ["#max-#med", "% of max ΔI", "avg %p2p"], rows,
        title="Noise vs. workload distribution (paper Fig. 11b)",
    )
    # Paper's probe: at ~50% ΔI, is a spread 0-6 distribution noisier
    # than a concentrated 3-0 one?  (A weak trend either way.)
    spread = by_distribution.get((0, 6), (None, None))[1]
    packed = by_distribution.get((3, 0), (None, None))[1]
    data = {
        "by_distribution": {
            f"{k[0]}-{k[1]}": v for k, v in by_distribution.items()
        },
        "spread_0_6_avg": spread,
        "packed_3_0_avg": packed,
        "distribution_effect": None
        if spread is None or packed is None
        else spread - packed,
    }
    return ExperimentResult("fig11b", "Noise vs. workload distribution", text, data)
