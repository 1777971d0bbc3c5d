"""Figure 13 — inter-core noise propagation.

(a) the correlation matrix of per-core noise across all workload
    mappings: all pairs correlate strongly (shared PDN), but two
    clusters emerge — {0,2,4} and {1,3,5}, the two core rows separated
    by the damping L3;
(b) a simulated ΔI step on core 0: cores 2 and 4 receive the noise
    faster and more strongly than the opposite row.
"""

from __future__ import annotations

import numpy as np

from ..analysis.correlation import correlation_matrix, detect_clusters
from ..analysis.propagation import propagation_traces
from ..analysis.report import render_table
from ..pdn.topology import row_cores
from .common import ExperimentContext
from .registry import ExperimentResult, register


@register("fig13a", "Inter-core noise correlation across mappings")
def run_fig13a(context: ExperimentContext):
    # The Fig. 11a/11b dataset — the planner dedups it.
    points = yield context.delta_i_sweep()
    n_cores = context.chip.n_cores
    matrix = correlation_matrix(points)
    clusters = detect_clusters(matrix)
    rows = [
        [f"core{i}"] + [f"{matrix[i, j]:.3f}" for j in range(n_cores)]
        for i in range(n_cores)
    ]
    text = render_table(
        ["", *(f"core{j}" for j in range(n_cores))], rows,
        title="Noise correlation across workload mappings (paper Fig. 13a)",
    )
    text += f"\nclusters: {clusters[0]} and {clusters[1]}"
    off_diagonal = matrix[~np.eye(n_cores, dtype=bool)]
    data = {
        "matrix": matrix,
        "clusters": clusters,
        "min_correlation": float(off_diagonal.min()),
        "all_above_0_9": bool(off_diagonal.min() > 0.9),
        "row_clusters_detected": sorted(map(tuple, clusters))
        == sorted(row_cores(n_cores)),
    }
    return ExperimentResult("fig13a", "Inter-core noise correlation", text, data)


@register("fig13b", "ΔI step on core 0: propagation to the other cores")
def run_fig13b(context: ExperimentContext) -> ExperimentResult:
    mark = context.generator.max_didt(freq_hz=context.resonant_freq_hz)
    trace = propagation_traces(
        context.chip, source_core=0, delta_i=mark.delta_i
    )
    rows = [
        [
            f"core{c}",
            f"{trace.peak_droop_by_core[c] * 1e3:.2f}",
            f"{trace.time_to_10pct_by_core[c] * 1e9:.1f}",
        ]
        for c in range(context.chip.n_cores)
    ]
    text = render_table(
        ["observer", "peak droop (mV)", "time to 10% of peak (ns)"], rows,
        title="ΔI step on core 0 (paper Fig. 13b, design-tool mode)",
    )
    north, south = row_cores(context.chip.n_cores)
    same_cores = [c for c in north if c != 0]
    same_row = [trace.peak_droop_by_core[c] for c in same_cores]
    cross_row = [trace.peak_droop_by_core[c] for c in south]
    same_row_t = [trace.time_to_10pct_by_core[c] for c in same_cores]
    cross_row_t = [trace.time_to_10pct_by_core[c] for c in south]
    data = {
        "trace": trace,
        "same_row_stronger": min(same_row) > max(cross_row),
        "same_row_faster": max(same_row_t) <= min(cross_row_t),
        "peaks_mv": [p * 1e3 for p in trace.peak_droop_by_core],
    }
    return ExperimentResult("fig13b", "Step propagation from core 0", text, data)
