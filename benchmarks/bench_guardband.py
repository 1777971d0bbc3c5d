"""Bench A5: utilization-based dynamic guard-banding (paper §VII-B).

Builds the margin schedule from the Figure 11 dataset and evaluates the
energy saving over representative utilization profiles: the benefit
grows as the system idles more, and vanishes at full utilization.
"""

from repro.analysis.guardband import build_policy, guardband_savings


def _evaluate(ctx):
    policy = build_policy(ctx.delta_i_sweep().run(ctx.session))
    profiles = {
        # Degenerate single-bucket profiles are rejected outright
        # (GuardbandProfileError), so "fully utilized" carries an
        # explicit zero-share low bucket.
        "fully utilized": {5: 0.0, 6: 1.0},
        "typical server (60% busy)": {2: 0.25, 4: 0.50, 6: 0.25},
        "lightly loaded": {0: 0.30, 1: 0.40, 2: 0.20, 6: 0.10},
    }
    return policy, {
        name: guardband_savings(policy, profile)
        for name, profile in profiles.items()
    }


def test_guardband_savings(benchmark, ctx):
    policy, savings = benchmark.pedantic(
        _evaluate, args=(ctx,), rounds=1, iterations=1
    )
    print()
    for cores in sorted(policy.margin_by_active_cores):
        print(f"margin with up to {cores} active cores: "
              f"{policy.margin_for(cores)*100:.2f}%")
    for name, value in savings.items():
        print(f"dynamic power saving, {name}: {value*100:.2f}%")
    assert savings["fully utilized"] == 0.0
    assert savings["lightly loaded"] > savings["typical server (60% busy)"] > 0.0
