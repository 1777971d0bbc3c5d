"""The ablation and extension studies (DESIGN.md §3, A1-A5, A7, A8):
each design choice the reproduction rests on, checked at full fidelity.

A6, the solver cross-validation, stays an oracle bench
(``benchmarks/bench_solvers.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.guardband import build_policy, guardband_savings
from repro.analysis.population import run_population_study
from repro.analysis.propagation import propagation_traces
from repro.core.filters import ipc_filter, microarch_filter
from repro.core.genetic import genetic_max_power_search
from repro.core.sequences import enumerate_sequences
from repro.experiments.common import default_context
from repro.machine.chip import reference_chip
from repro.machine.runner import ChipRunner, RunOptions
from repro.measure.powermeter import PowerMeter
from repro.mitigation.staggering import evaluate_stagger
from repro.mitigation.throttle import GlobalDidtThrottle
from repro.pdn.impedance import impedance_profile
from repro.pdn.topology import build_chip_netlist
from repro.pdn.zec12 import reference_chip_parameters
from repro.uarch.power import estimate_loop_power


@pytest.fixture(scope="session")
def ctx():
    """The full-fidelity experiment context (EPI profile, max-power
    search, chip solver artifacts), built once."""
    return default_context()


def test_edram_ablation():
    """A1: deep-trench eDRAM decap moved the first droop from the
    traditional 30-100 MHz band to ~2 MHz (paper §V-A); dividing the
    on-chip capacitance back out moves it back up."""
    base = reference_chip_parameters()
    thin = base.without_deep_trench(40.0)
    base_f, _ = impedance_profile(
        build_chip_netlist(base), "load_core0", "core0", 1e5, 1e9
    ).peak()
    thin_f, _ = impedance_profile(
        build_chip_netlist(thin), "load_core0", "core0", 1e5, 1e9
    ).peak()
    assert 1e6 < base_f < 5e6
    assert thin_f > 8e6        # back toward the traditional band
    assert thin_f > 4 * base_f


def _row_asymmetry(chip) -> float:
    trace = propagation_traces(chip, source_core=0, delta_i=18.0, samples=1500)
    same = np.mean([trace.peak_droop_by_core[c] for c in (2, 4)])
    cross = np.mean([trace.peak_droop_by_core[c] for c in (1, 3, 5)])
    return same / cross


def test_l3_damping_ablation():
    """A2: the L3's capacitance between the core rows damps cross-row
    propagation, which creates the {0,2,4}/{1,3,5} clusters (§VI)."""
    base = reference_chip()
    with_l3 = _row_asymmetry(base)
    without_l3 = _row_asymmetry(
        base.with_pdn(base.config.pdn.without_l3_bridge())
    )
    assert with_l3 > 1.05          # clusters exist
    assert with_l3 > without_l3    # the L3 bridge creates the separation


def test_whitebox_vs_ga(ctx):
    """A3: the white-box pipeline finds a sequence at least as powerful
    as the GA baseline's (the AUDIT line of work)."""
    whitebox = ctx.generator.max_power_result
    ga = genetic_max_power_search(
        ctx.generator.target,
        whitebox.candidates,
        meter=PowerMeter(ctx.generator.target, seed=303),
        population=40,
        generations=25,
        seed=11,
    )
    assert whitebox.power_w >= ga.power_w * 0.97


def test_ipc_filter_effectiveness(ctx):
    """A4: the IPC-filtered pool holds markedly more powerful sequences
    than a random sample of the microarchitecturally valid pool."""
    target = ctx.generator.target
    candidates = ctx.generator.max_power_result.candidates
    survivors, _ = microarch_filter(
        enumerate_sequences(candidates), target.core
    )
    top, _ = ipc_filter(survivors, target.core, keep=200)
    rng = np.random.default_rng(7)
    sample = [
        survivors[int(i)]
        for i in rng.choice(len(survivors), 200, replace=False)
    ]
    model = target.energy_model
    power_top = np.mean(
        [estimate_loop_power(list(s), model).watts for s in top]
    )
    power_rand = np.mean(
        [estimate_loop_power(list(s), model).watts for s in sample]
    )
    assert power_top > power_rand + 1.0


def test_guardband_savings(ctx):
    """A5: utilization-based dynamic guard-banding saves more energy
    the more the system idles, and nothing at full utilization
    (§VII-B)."""
    policy = build_policy(ctx.delta_i_sweep().run(ctx.session))
    profiles = {
        # Degenerate single-bucket profiles are rejected outright
        # (GuardbandProfileError), so "fully utilized" carries an
        # explicit zero-share low bucket.
        "fully utilized": {5: 0.0, 6: 1.0},
        "typical server (60% busy)": {2: 0.25, 4: 0.50, 6: 0.25},
        "lightly loaded": {0: 0.30, 1: 0.40, 2: 0.20, 6: 0.10},
    }
    savings = {
        name: guardband_savings(policy, profile)
        for name, profile in profiles.items()
    }
    assert savings["fully utilized"] == 0.0
    assert savings["lightly loaded"] > savings["typical server (60% busy)"] > 0.0


def _resonant_mapping(ctx) -> list:
    program = ctx.generator.max_didt(
        freq_hz=ctx.resonant_freq_hz, synchronize=True
    ).current_program()
    return [program] * 6


def test_mitigation_mechanisms(ctx):
    """A7: staggering the synchronized ΔI events cuts the noise (§V-F:
    "the noise can be reduced by 2-3x"), and the global ΔI throttle
    trades throughput for noise."""
    mapping = _resonant_mapping(ctx)
    options = RunOptions(segments=8)
    stagger = evaluate_stagger(
        ctx.chip, mapping, window_steps=8, options=options
    )
    throttled = GlobalDidtThrottle(ctx.chip, budget_amps=45.0).evaluate(
        mapping, options
    )
    assert stagger.reduction_factor > 1.15
    assert throttled.noise_reduction > 0.0


def test_population_reproducibility(ctx):
    """A8: across a seeded chip population the worst-case noise moves
    by percents, not factors ("experiments have been run on different
    processors multiple times to check their reproducibility")."""
    mapping = _resonant_mapping(ctx)

    def worst_noise(chip) -> float:
        result = ChipRunner(chip).run(
            mapping, RunOptions(segments=4), run_tag="population"
        )
        return result.max_p2p

    stat = run_population_study(worst_noise, "worst-case %p2p", n_chips=6)
    assert stat.spread_pct < 30.0
    assert 50.0 < stat.mean < 75.0
