"""Max-power search pipeline tests (candidates, sequences, filters,
search, and the min/medium-power constructions)."""

import pytest

from repro.core.candidates import select_candidates
from repro.core.filters import (
    FilterConstraints,
    ipc_filter,
    microarch_filter,
)
from repro.core.mediumpower import medium_power_sequence, target_power_sequence
from repro.core.minpower import min_power_sequence
from repro.core.sequences import enumerate_sequences, sequence_space_size
from repro.errors import GenerationError
from repro.uarch.power import estimate_loop_power
from repro.uarch.throughput import analyze_loop


class TestCandidateSelection:
    def test_nine_candidates_by_default(self, generator):
        candidates = select_candidates(generator.epi_profile)
        assert len(candidates) == 9

    def test_one_per_issue_class(self, generator):
        candidates = select_candidates(generator.epi_profile)
        classes = [c.issue_class for c in candidates]
        assert len(classes) == len(set(classes))

    def test_low_power_classes_discarded(self, generator):
        candidates = select_candidates(generator.epi_profile)
        units = {c.unit for c in candidates}
        assert "DFU" not in units  # decimal FP is low power
        assert "SYS" not in units  # serializing control is low IPC

    def test_top_instruction_is_cib(self, generator):
        candidates = select_candidates(generator.epi_profile)
        assert candidates[0].mnemonic == "CIB"

    def test_threshold_guards(self, generator):
        with pytest.raises(GenerationError):
            select_candidates(generator.epi_profile, max_candidates=1)
        with pytest.raises(GenerationError):
            select_candidates(generator.epi_profile, min_power_ratio=99.0)


class TestSequenceEnumeration:
    def test_space_size(self):
        assert sequence_space_size(9, 6) == 531441
        assert sequence_space_size(3, 2) == 9

    def test_enumeration_is_exhaustive(self, generator):
        candidates = select_candidates(generator.epi_profile)[:3]
        sequences = list(enumerate_sequences(candidates, length=2))
        assert len(sequences) == 9
        assert len(set(tuple(i.mnemonic for i in s) for s in sequences)) == 9

    def test_empty_pool_rejected(self):
        with pytest.raises(GenerationError):
            list(enumerate_sequences([], length=2))


class TestMicroarchFilter:
    def test_requires_full_group_size(self, generator, core_config):
        candidates = select_candidates(generator.epi_profile)
        branch = next(c for c in candidates if c.is_branch)
        alu1, alu2 = [
            c for c in candidates if not c.is_branch and not c.memory
        ][:2]
        # A branch in slot 0 breaks the first group to size 1.
        bad = (branch, alu1, alu2, alu1, alu2, branch)
        good = (alu1, alu2, branch, alu1, alu2, branch)
        survivors, _ = microarch_filter([bad, good], core_config)
        assert survivors == [good]

    def test_class_multiplicity_limit(self, generator, core_config):
        candidates = select_candidates(generator.epi_profile)
        alu = next(c for c in candidates if not c.is_branch and not c.memory)
        too_many = (alu,) * 6
        survivors, stats = microarch_filter([too_many], core_config)
        assert survivors == []
        assert stats.rejected == 1

    def test_funnel_statistics(self, generator, core_config):
        candidates = select_candidates(generator.epi_profile)[:4]
        sequences = list(enumerate_sequences(candidates, length=3))
        survivors, stats = microarch_filter(sequences, core_config)
        assert stats.examined == len(sequences)
        assert stats.accepted == len(survivors)
        assert stats.rejected == stats.examined - stats.accepted


class TestIpcFilter:
    def test_keeps_top_n_by_ipc(self, generator, core_config):
        candidates = select_candidates(generator.epi_profile)
        sequences = list(enumerate_sequences(candidates[:3], length=3))
        kept, stats = ipc_filter(sequences, core_config, keep=10)
        assert len(kept) == 10
        worst_kept = min(analyze_loop(s, core_config).ipc for s in kept)
        dropped = [s for s in sequences if s not in kept]
        best_dropped = max(analyze_loop(s, core_config).ipc for s in dropped)
        assert worst_kept >= best_dropped - 1e-9

    def test_keep_zero_rejected(self, generator, core_config):
        with pytest.raises(GenerationError):
            ipc_filter([], core_config, keep=0)


class TestFullSearch:
    def test_funnel_shape(self, generator):
        result = generator.max_power_result
        assert result.enumerated == 531441
        assert 0 < result.microarch_stats.accepted < result.enumerated
        assert result.evaluated <= 150  # the session generator's ipc_keep

    def test_winner_beats_single_instruction_loops(self, generator, target):
        result = generator.max_power_result
        ceiling = target.core.floor_power_w * max(
            i.power_weight for i in target.isa
        )
        assert result.power_w > ceiling

    def test_winner_has_full_dispatch_rate(self, generator, target):
        profile = analyze_loop(list(generator.max_power_result.sequence), target.core)
        assert profile.ipc == pytest.approx(3.0, abs=0.01)

    def test_validation_readings_close(self, generator):
        result = generator.max_power_result
        assert len(result.validation_powers) == 2
        for reading in result.validation_powers:
            assert reading == pytest.approx(result.power_w, rel=0.03)


class TestMinAndMediumPower:
    def test_min_sequence_is_ranking_tail(self, generator):
        seq = min_power_sequence(generator.epi_profile)
        assert len(seq) == 1
        assert seq[0].mnemonic == generator.epi_profile.last.mnemonic

    def test_medium_hits_midpoint(self, generator, target):
        dilution = generator.medium_dilution
        max_w = generator.max_builder._high_estimate.watts
        min_w = generator.max_builder._low_estimate.watts
        midpoint = 0.5 * (max_w + min_w)
        assert dilution.power_w == pytest.approx(midpoint, rel=0.03)

    def test_target_power_search_tracks_targets(self, generator, target):
        max_seq = generator.max_sequence
        min_seq = generator.min_sequence
        lo = target_power_sequence(
            target, max_seq, min_seq, target_power_w=18.0,
            max_high_copies=8, max_low_copies=6,
        )
        hi = target_power_sequence(
            target, max_seq, min_seq, target_power_w=30.0,
            max_high_copies=8, max_low_copies=6,
        )
        assert lo.power_w < hi.power_w

    def test_medium_rejects_inverted_bounds(self, generator, target):
        with pytest.raises(GenerationError):
            medium_power_sequence(
                target, generator.max_sequence, generator.min_sequence,
                max_power_w=10.0, min_power_w=20.0,
            )
