#!/usr/bin/env python3
"""Characterize a chip's voltage-noise behavior, the paper's §V flow.

Sweeps the dI/dt stressmark's stimulus frequency with and without TOD
synchronization, locates the resonant bands, and compares them with the
PDN impedance profile — the simulation analogue of Figures 7a/7b/9.

Run:  python examples/characterize_chip.py
"""

from repro import (
    RunOptions,
    SimulationSession,
    StressmarkGenerator,
    reference_chip,
)
from repro.analysis.report import render_series
from repro.analysis.sensitivity import (
    default_frequency_grid,
    sweep_stimulus_frequency,
)
from repro.pdn.impedance import find_resonances, impedance_profile
from repro.units import format_freq


def main() -> None:
    generator = StressmarkGenerator(epi_repetitions=200)
    chip = reference_chip()
    session = SimulationSession(chip, RunOptions(segments=6))

    # --- impedance profile (design-side view) -------------------------
    profile = impedance_profile(
        chip.netlist, "load_core0", "core0", f_min=1e3, f_max=1e9,
        modal=chip.modal,
    )
    print("PDN impedance profile — resonant bands:")
    for freq, ohms in find_resonances(profile):
        print(f"  {format_freq(freq):>10}: {ohms * 1e3:.2f} mOhm")

    # --- measured noise sweep (workload-side view) ---------------------
    freqs = default_frequency_grid(points_per_decade=4)
    unsync = sweep_stimulus_frequency(
        generator, chip, freqs, synchronize=False
    ).run(session)
    synced = sweep_stimulus_frequency(
        generator, chip, freqs, synchronize=True
    ).run(session)
    print()
    print(
        render_series(
            "stimulus",
            [format_freq(f) for f in freqs],
            {
                "unsync max %p2p": [p.max_p2p for p in unsync],
                "sync max %p2p": [p.max_p2p for p in synced],
                "sync uplift": [
                    s.max_p2p - u.max_p2p for s, u in zip(synced, unsync)
                ],
            },
            title="Noise vs stimulus frequency (cf. paper Figs. 7a and 9)",
        )
    )

    peak = max(synced, key=lambda p: p.max_p2p)
    print(
        f"\nNoisiest configuration: synchronized stressmarks at "
        f"{format_freq(peak.freq_hz)} -> {peak.max_p2p:.1f} %p2p "
        f"(per-core: {', '.join(f'{v:.0f}' for v in peak.p2p_by_core)})"
    )
    print(
        "Note how the measured noise bands line up with the impedance "
        "peaks, and how synchronization lifts the whole spectrum."
    )


if __name__ == "__main__":
    main()
