#!/usr/bin/env python3
"""The mitigation playbook: scheduler, staggerer, throttle, guard-band.

Takes the worst co-schedule the characterization found (six synchronized
max dI/dt stressmarks at the resonant band) and applies each mitigation
mechanism in turn, reporting what it buys and what it costs.

Run:  python examples/mitigation_playbook.py
"""

from repro import (
    RunOptions,
    SimulationSession,
    StressmarkGenerator,
    reference_chip,
)
from repro.analysis.guardband import build_policy
from repro.analysis.sensitivity import sweep_delta_i_mappings
from repro.mitigation.guardband import GuardbandController
from repro.mitigation.scheduler import NoiseAwareScheduler
from repro.mitigation.staggering import evaluate_stagger
from repro.mitigation.throttle import GlobalDidtThrottle
from repro.workloads.traces import synthetic_utilization_trace


def main() -> None:
    generator = StressmarkGenerator(epi_repetitions=200)
    chip = reference_chip()
    options = RunOptions(segments=6)
    program = generator.max_didt(freq_hz=2.6e6, synchronize=True).current_program()

    print("Adversarial co-schedule: six synchronized max dI/dt stressmarks.\n")

    # 1. Noise-aware placement (only helps with free cores).
    scheduler = NoiseAwareScheduler(chip, program, options)
    placement = scheduler.place(3)
    print(
        f"[scheduler]  3 workloads -> cores {placement.cores}: "
        f"{placement.worst_noise:.1f} %p2p vs {placement.worst_alternative:.1f} "
        f"adversarial ({placement.noise_saved:.1f} points, "
        f"{scheduler.margin_saved(3) * 1e3:.1f} mV of margin)"
    )

    # 2. ΔI-event staggering (TOD offsets, Figure 10's insight).
    stagger = evaluate_stagger(chip, [program] * 6, window_steps=8, options=options)
    print(
        f"[staggerer]  full chip: {stagger.baseline.max_p2p:.1f} -> "
        f"{stagger.staggered.max_p2p:.1f} %p2p "
        f"(x{stagger.reduction_factor:.2f}) with offsets spread over "
        f"{stagger.plan.window * 1e9:.0f} ns"
    )

    # 3. Global ΔI throttle (the next-gen monitor/reduce mechanism).
    throttle = GlobalDidtThrottle(chip, budget_amps=45.0)
    outcome = throttle.evaluate([program] * 6, options)
    print(
        f"[throttle]   budget 45 A coherent ΔI: "
        f"{outcome.baseline.max_p2p:.1f} -> {outcome.throttled.max_p2p:.1f} %p2p "
        f"at {outcome.throughput_cost * 100:.1f}% throughput cost"
    )

    # 4. Utilization-based dynamic guard-banding over a day of load.
    print("\n[guard-band] building the margin schedule from the ΔI study...")
    points = sweep_delta_i_mappings(
        generator, chip, placements_per_distribution=2
    ).run(SimulationSession(chip, options))
    controller = GuardbandController(chip, build_policy(points))
    trace = synthetic_utilization_trace(seed=5)
    run = controller.run(trace)
    print(
        f"[guard-band] one simulated day at {trace.mean_utilization * 100:.0f}% "
        f"mean utilization: {run.energy_saving * 100:.2f}% dynamic energy saved, "
        f"{run.transitions} voltage transitions, "
        f"minimum safety headroom {run.min_headroom * 100:.2f}% (never negative)"
    )


if __name__ == "__main__":
    main()
