"""Experiment context tests: factory and caching semantics."""

import pytest

from repro.experiments.common import (
    RESONANT_FREQ_HZ,
    default_context,
    quick_context,
)


class TestContexts:
    def test_contexts_are_fresh_per_call(self):
        # Factory semantics: mutating one caller's options must not
        # leak into the next caller's context.
        first = quick_context()
        first.options.collect_waveforms = True
        first.options.segments = 1
        second = quick_context()
        assert second is not first
        assert second.options is not first.options
        assert second.options.collect_waveforms is False
        assert second.options.segments == 4

    def test_heavy_artifacts_are_shared(self):
        # The generator and chip are pure functions of their parameters
        # and expensive to build; contexts share them.
        a, b = quick_context(), quick_context()
        assert a.generator is b.generator
        assert a.chip is b.chip
        assert default_context().chip is a.chip

    def test_sessions_share_the_result_cache(self):
        a, b = quick_context(), quick_context()
        assert a.session is not b.session
        assert a.session.cache is b.session.cache

    def test_quick_is_cheaper_than_default(self):
        quick = quick_context()
        full = default_context()
        assert quick.options.segments <= full.options.segments
        assert quick.freq_points_per_decade <= full.freq_points_per_decade
        assert (
            quick.generator.epi_repetitions < full.generator.epi_repetitions
        )

    def test_resonant_frequency_matches_chip(self):
        from repro.pdn.impedance import impedance_profile

        ctx = quick_context()
        profile = impedance_profile(
            ctx.chip.netlist, "load_core0", "core0", 1e5, 1e8,
            modal=ctx.chip.modal,
        )
        peak_freq, _ = profile.peak()
        assert peak_freq == pytest.approx(RESONANT_FREQ_HZ, rel=0.25)

    def test_delta_i_points_cached(self):
        ctx = quick_context()
        first = ctx.delta_i_sweep().run(ctx.session)
        executed = ctx.session.telemetry.counter("engine.runs_executed")
        # The dataset is rebuilt, but every run replays from the engine
        # cache — even from a *fresh* context over the same platform.
        fresh = quick_context()
        second = fresh.delta_i_sweep().run(fresh.session)
        assert ctx.session.telemetry.counter("engine.runs_executed") == executed
        assert len(first) > 20  # all distributions, sampled placements
        assert [p.p2p_by_core for p in first] == [p.p2p_by_core for p in second]

    def test_runner_binds_context_chip(self):
        ctx = quick_context()
        assert ctx.runner.chip is ctx.chip
        assert ctx.session.chip is ctx.chip
