"""Figure 14 — two mappings of three worst-case stressmarks.

The paper contrasts a cross-cluster mapping (cores 1, 4, 5 — worst-case
24.6 %p2p) with a same-cluster mapping (cores 0, 2, 4 — worst-case
28.2 %p2p): packing the stressmarks into one noise cluster costs a few
%p2p points of worst-case noise, and the middle core of a loaded row is
amplified by sitting between two noisy neighbors.
"""

from __future__ import annotations

from ..analysis.mapping import MappingOutcome
from ..analysis.report import render_table
from ..machine.workload import idle_program
from ..plan.spec import Sweep
from .common import ExperimentContext
from .registry import ExperimentResult, register

CROSS_CLUSTER = (1, 4, 5)
SAME_CLUSTER = (0, 2, 4)


@register("fig14", "Best-vs-worst mapping of three stressmarks")
def run(context: ExperimentContext):
    # These two placements are a subset of the exhaustive Fig. 15 study;
    # running them through the session replays its cached results.
    program = context.generator.max_didt(
        freq_hz=context.resonant_freq_hz, synchronize=True
    ).current_program()
    idle = idle_program(context.generator.target.idle_current)
    placements = (CROSS_CLUSTER, SAME_CLUSTER)
    outcomes: dict[tuple[int, ...], MappingOutcome] = yield Sweep(
        mappings=tuple(
            tuple(program if c in cores else idle
                  for c in range(context.chip.n_cores))
            for cores in placements
        ),
        tags=tuple(("fig14", cores) for cores in placements),
        finish=lambda results: {
            cores: MappingOutcome(cores=cores, p2p_by_core=result.p2p_by_core)
            for cores, result in zip(placements, results)
        },
    )

    rows = []
    for cores, outcome in outcomes.items():
        rows.append(
            [
                "{" + ",".join(map(str, cores)) + "}",
                " ".join(f"{p:.1f}" for p in outcome.p2p_by_core),
                f"{outcome.worst_noise:.1f}",
                f"core{outcome.worst_core}",
            ]
        )
    text = render_table(
        ["stressmark cores", "per-core %p2p", "worst", "worst core"], rows,
        title="Two mappings of 3 worst-case dI/dt stressmarks (paper Fig. 14)",
    )
    cross = outcomes[CROSS_CLUSTER]
    same = outcomes[SAME_CLUSTER]
    data = {
        "cross_cluster_worst": cross.worst_noise,
        "same_cluster_worst": same.worst_noise,
        "same_cluster_is_noisier": same.worst_noise > cross.worst_noise,
        "penalty": same.worst_noise - cross.worst_noise,
        "outcomes": outcomes,
    }
    return ExperimentResult("fig14", "Mapping comparison (3 stressmarks)", text, data)
