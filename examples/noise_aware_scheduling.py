#!/usr/bin/env python3
"""Noise-aware workload mapping and dynamic guard-banding (paper §VII).

Enumerates every placement of k stressmarks on the six cores to expose
the best/worst mapping gap (Figures 14/15), then derives a
utilization-based guard-band schedule and the energy it saves on
representative utilization profiles.

Run:  python examples/noise_aware_scheduling.py
"""

from repro import (
    RunOptions,
    SimulationSession,
    StressmarkGenerator,
    reference_chip,
)
from repro.analysis.guardband import build_policy, guardband_savings
from repro.analysis.mapping import mapping_extremes
from repro.analysis.report import render_table
from repro.analysis.sensitivity import sweep_delta_i_mappings


def main() -> None:
    generator = StressmarkGenerator(epi_repetitions=200)
    chip = reference_chip()
    session = SimulationSession(chip, RunOptions(segments=4))
    program = generator.max_didt(freq_hz=2.6e6, synchronize=True).current_program()

    # --- mapping opportunity (Figure 15) -------------------------------
    studies = mapping_extremes(chip, program, list(range(7))).run(session)
    rows = []
    for count in sorted(studies):
        study = studies[count]
        rows.append([
            count,
            f"{study.worst.worst_noise:.1f}",
            "{" + ",".join(map(str, study.worst.cores)) + "}",
            f"{study.best.worst_noise:.1f}",
            "{" + ",".join(map(str, study.best.cores)) + "}",
            f"{study.reduction_opportunity:.1f}",
        ])
    print(render_table(
        ["#workloads", "worst %p2p", "worst cores", "best %p2p",
         "best cores", "headroom"],
        rows,
        title="Noise-aware mapping opportunity (cf. paper Fig. 15)",
    ))
    print(
        "\nA noise-aware scheduler placing 2-4 stressmark-class workloads "
        "can shave the worst-case noise by the 'headroom' column, which "
        "translates directly into guard-band."
    )

    # --- utilization-based guard-banding (paper §VII-B) ----------------
    print("\nBuilding the ΔI dataset for the guard-band schedule...")
    points = sweep_delta_i_mappings(
        generator, chip, placements_per_distribution=2
    ).run(session)
    policy = build_policy(points)
    rows = [
        [cores, f"{policy.margin_for(cores) * 100:.2f}%"]
        for cores in sorted(policy.margin_by_active_cores)
    ]
    print(render_table(
        ["active cores (max)", "required margin"], rows,
        title="Utilization-indexed margin schedule",
    ))
    # A dynamic guard band saves nothing without utilization variation,
    # so every profile spreads its time over several occupancy levels.
    for name, profile in {
        "typical server": {2: 0.25, 4: 0.5, 6: 0.25},
        "lightly loaded": {0: 0.3, 1: 0.4, 2: 0.2, 6: 0.1},
    }.items():
        saving = guardband_savings(policy, profile)
        print(f"dynamic power saving, {name}: {saving * 100:.2f}%")


if __name__ == "__main__":
    main()
