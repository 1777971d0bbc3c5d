#!/usr/bin/env python3
"""Vmin margin study: how much guard-band does each noise scenario eat?

Reproduces the flavor of the paper's Figure 12: undervolt the chip in
0.5 % steps under different stressmark configurations until the R-Unit
reports the first error, and compare the available margins — including
the extrapolated worst-case *customer* workload the paper uses to argue
there is "plenty of margin for optimization opportunities".

Run:  python examples/vmin_margin_study.py
"""

from repro import (
    RunOptions,
    SimulationSession,
    StressmarkGenerator,
    reference_chip,
)
from repro.analysis.margins import customer_margin_line
from repro.analysis.report import render_table
from repro.measure.vmin import vmin_experiment


def main() -> None:
    generator = StressmarkGenerator(epi_repetitions=200)
    chip = reference_chip()
    session = SimulationSession(chip, RunOptions(segments=6))

    scenarios = [
        ("sync, 1000 events, 2.6 MHz", dict(freq_hz=2.6e6, synchronize=True)),
        ("sync, 1 event, 2.6 MHz",
         dict(freq_hz=2.6e6, synchronize=True, n_events=1)),
        ("sync, 1000 events, 37 kHz", dict(freq_hz=3.7e4, synchronize=True)),
        ("no sync, 2.6 MHz", dict(freq_hz=2.6e6, synchronize=False)),
        ("sync, 1 Hz", dict(freq_hz=1.0, synchronize=True)),
        ("sync, 100 MHz", dict(freq_hz=1e8, synchronize=True)),
    ]

    rows = []
    for name, spec in scenarios:
        program = generator.max_didt(**spec).current_program()
        result = vmin_experiment(chip, [program] * 6).run(session)
        rows.append([
            name,
            f"{result.margin_frac * 100:.1f}%",
            result.steps_survived,
            f"{result.simulated_minutes:.0f} min",
        ])

    customer = customer_margin_line(
        chip,
        generator.max_didt(freq_hz=2.6e6, synchronize=False).current_program(),
    ).run(session)
    rows.append([
        "customer worst case (80% ΔI, no sync)",
        f"{customer.margin_frac * 100:.1f}%",
        customer.steps_survived,
        f"{customer.simulated_minutes:.0f} min",
    ])

    print(render_table(
        ["scenario", "available margin", "0.5% steps survived",
         "hardware turnaround"],
        rows,
        title="Vmin margins (cf. paper Fig. 12)",
    ))
    print(
        "\nReadings to note: synchronized scenarios cluster at low margin "
        "regardless of event count and frequency; removing synchronization "
        "more than doubles the margin; and the realistic customer ceiling "
        "leaves room for dynamic guard-banding."
    )


if __name__ == "__main__":
    main()
