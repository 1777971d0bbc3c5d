"""GA baseline (AUDIT-style) tests."""

import pytest

from repro.core.genetic import genetic_max_power_search
from repro.engine.cache import ResultCache
from repro.errors import GenerationError
from repro.isa.zmainframe import DEFAULT_ISA_SEED, build_zmainframe_isa
from repro.mbench.target import Target
from repro.measure.powermeter import PowerMeter


@pytest.fixture(scope="module")
def ga_result(generator, target):
    candidates = generator.max_power_result.candidates
    return genetic_max_power_search(
        target,
        candidates,
        meter=PowerMeter(target, seed=5),
        population=16,
        generations=8,
        seed=1,
    )


class TestGeneticSearch:
    def test_finds_high_power_sequence(self, ga_result, target):
        # The GA should at least beat the best single-instruction loop.
        ceiling = target.core.floor_power_w * max(
            i.power_weight for i in target.isa
        )
        assert ga_result.power_w > ceiling

    def test_history_is_nondecreasing(self, ga_result):
        # Elitism keeps the best individual, so best-of-generation never
        # regresses (up to meter noise on re-evaluation, which the cache
        # eliminates).
        for earlier, later in zip(ga_result.history, ga_result.history[1:]):
            assert later >= earlier - 1e-9

    def test_evaluation_budget_reported(self, ga_result):
        assert ga_result.evaluations > 16  # more than one generation
        assert ga_result.generations == 8

    def test_deterministic_given_seed(self, generator, target):
        candidates = generator.max_power_result.candidates
        kwargs = dict(
            meter=PowerMeter(target, seed=5),
            population=8,
            generations=3,
            seed=7,
        )
        a = genetic_max_power_search(target, candidates, **kwargs)
        b = genetic_max_power_search(target, candidates, **kwargs)
        assert a.mnemonics == b.mnemonics

    def test_whitebox_beats_or_matches_ga(self, generator, ga_result):
        """The comparison the ablation bench makes: the systematic
        pipeline should find an equal or better sequence."""
        assert generator.max_power_result.power_w >= ga_result.power_w * 0.97

    def test_guards(self, generator, target):
        candidates = generator.max_power_result.candidates
        with pytest.raises(GenerationError):
            genetic_max_power_search(target, [], population=8)
        with pytest.raises(GenerationError):
            genetic_max_power_search(target, candidates, population=2)
        with pytest.raises(GenerationError):
            genetic_max_power_search(target, candidates, population=8, elite=8)

    def test_readings_are_keyed_by_target_content(self, generator, target):
        """Another seed's ISA has the same name and mnemonics but other
        definitions: it must measure, not replay the first ISA's
        readings.  A target with the same definitions replays them."""
        mnemonics = [i.mnemonic for i in generator.max_power_result.candidates]
        cache = ResultCache()

        def search(bound: Target):
            return genetic_max_power_search(
                bound,
                [bound.isa[m] for m in mnemonics],
                meter=PowerMeter(bound, seed=5),
                population=8,
                generations=2,
                seed=3,
                cache=cache,
            )

        other = Target(
            isa=build_zmainframe_isa(DEFAULT_ISA_SEED + 1), core=target.core
        )
        assert other.isa.name == target.isa.name
        assert search(target).evaluations > 0
        assert search(other).evaluations > 0
        same = Target(isa=build_zmainframe_isa(), core=target.core)
        assert search(same).evaluations == 0
