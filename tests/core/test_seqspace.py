"""The vectorized sequence-space search must be an exact drop-in for
the scalar enumerate → microarch_filter → ipc_filter chain: same
finalists, same order, same funnel statistics."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.candidates import select_candidates
from repro.core.filters import FilterConstraints, ipc_filter, microarch_filter
from repro.core.seqspace import search_sequence_space
from repro.core.sequences import enumerate_sequences
from repro.errors import GenerationError


@pytest.fixture(scope="module")
def candidates(generator):
    return select_candidates(generator.epi_profile)


@pytest.fixture(scope="module")
def epi_weights(generator):
    static_share = 0.98
    return {
        entry.mnemonic: max(entry.normalized_power - static_share, 0.0)
        / max(entry.ipc, 1e-6)
        for entry in generator.epi_profile.entries
    }


def scalar_chain(pool, config, constraints, length, keep, epi_weights):
    survivors, micro_stats = microarch_filter(
        enumerate_sequences(pool, length=length), config, constraints
    )
    finalists, ipc_stats = ipc_filter(
        survivors, config, keep=keep, epi_weights=epi_weights
    )
    return finalists, micro_stats, ipc_stats


def assert_same_funnel(vector, scalar):
    v_final, v_micro, v_ipc = vector
    s_final, s_micro, s_ipc = scalar
    assert (v_micro.examined, v_micro.accepted) == (
        s_micro.examined,
        s_micro.accepted,
    )
    assert (v_ipc.examined, v_ipc.accepted) == (s_ipc.examined, s_ipc.accepted)
    assert len(v_final) == len(s_final)
    for fast, slow in zip(v_final, s_final):
        assert fast == slow  # InstructionDef tuples, position for position


class TestParity:
    @pytest.mark.parametrize("pool_size,length", [(6, 4), (9, 3)])
    def test_matches_scalar_chain(
        self, candidates, core_config, epi_weights, pool_size, length
    ):
        pool = candidates[:pool_size]
        args = (pool, core_config, None, length, 50, epi_weights)
        assert_same_funnel(
            search_sequence_space(
                pool, core_config, None, length=length, keep=50,
                epi_weights=epi_weights,
            ),
            scalar_chain(*args),
        )

    def test_matches_without_weights(self, candidates, core_config):
        """Tie-breaking falls back to pure enumeration order when no
        EPI weights are supplied — in both implementations."""
        pool = candidates[:5]
        assert_same_funnel(
            search_sequence_space(pool, core_config, None, length=4, keep=25),
            scalar_chain(pool, core_config, None, 4, 25, None),
        )

    def test_matches_custom_constraints(
        self, candidates, core_config, epi_weights
    ):
        constraints = FilterConstraints(
            required_group_size=2.0,
            max_branches=1,
            max_per_issue_class=3,
            max_memory=2,
        )
        pool = candidates[:6]
        assert_same_funnel(
            search_sequence_space(
                pool, core_config, constraints, length=4, keep=40,
                epi_weights=epi_weights,
            ),
            scalar_chain(pool, core_config, constraints, 4, 40, epi_weights),
        )

    def test_keep_larger_than_survivors(self, candidates, core_config):
        """keep beyond the survivor count returns every survivor."""
        pool = candidates[:4]
        finalists, micro, ipc = search_sequence_space(
            pool, core_config, None, length=3, keep=10**6
        )
        assert ipc.accepted == micro.accepted == len(finalists)


#: One pick per instruction kind the reference pool lacks, so a pool
#: drives every branch of the dispatch-group automaton and every IPC
#: term: cracked multi-µop (dispatch alone), non-pipelined (unit
#: occupancy = latency), serializing (drain penalty), a memory op (the
#: per-group memory budget) and a branch (ends its group).
BRANCHING_KINDS = (
    lambda inst: inst.group_alone and not inst.serializing,
    lambda inst: not inst.pipelined,
    lambda inst: inst.serializing,
    lambda inst: inst.memory and not inst.group_alone,
    lambda inst: inst.is_branch,
)


def branching_pool(isa, seed, size=6):
    """*size* distinct instructions drawn from the whole ISA: one of
    each of :data:`BRANCHING_KINDS`, the rest at random, shuffled."""
    rng = random.Random(seed)
    definitions = list(isa)
    pool = []
    for kind in BRANCHING_KINDS:
        pool.append(rng.choice(
            [inst for inst in definitions if kind(inst) and inst not in pool]
        ))
    while len(pool) < size:
        inst = rng.choice(definitions)
        if inst not in pool:
            pool.append(inst)
    rng.shuffle(pool)
    return pool


class TestBranchingParity:
    """Pools from the whole ISA, under constraints relaxed so that
    sequences holding each kind survive; every survivor is ranked."""

    @pytest.mark.parametrize("required_group_size", [1.0, 2.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_chain(
        self, isa, core_config, epi_weights, seed, required_group_size
    ):
        pool = branching_pool(isa, seed)
        constraints = FilterConstraints(
            required_group_size=required_group_size,
            max_nonpipelined=2,
            max_per_issue_class=3,
        )
        vector = search_sequence_space(
            pool, core_config, constraints, length=4, keep=10**6,
            epi_weights=epi_weights,
        )
        finalists = vector[0]
        for kind in BRANCHING_KINDS[:3]:
            assert any(kind(inst) for seq in finalists for inst in seq)
        assert_same_funnel(
            vector,
            scalar_chain(
                pool, core_config, constraints, 4, 10**6, epi_weights
            ),
        )

    def test_longer_sequences(self, isa, core_config, epi_weights):
        pool = branching_pool(isa, seed=7, size=5)
        constraints = FilterConstraints(
            required_group_size=1.5, max_nonpipelined=2, max_memory=4,
        )
        assert_same_funnel(
            search_sequence_space(
                pool, core_config, constraints, length=5, keep=300,
                epi_weights=epi_weights,
            ),
            scalar_chain(pool, core_config, constraints, 5, 300, epi_weights),
        )


class TestFullSize:
    def test_reference_finalists_are_pinned(
        self, candidates, core_config, epi_weights
    ):
        """The 9^6 funnel on the reference pool at default constraints
        and keep 1000: the funnel counts and the finalists' mnemonics
        in rank order (too slow to check against the scalar chain)."""
        finalists, micro, ipc = search_sequence_space(
            candidates, core_config, None, keep=1000,
            epi_weights=epi_weights,
        )
        assert (micro.examined, micro.accepted) == (531_441, 124_452)
        assert (ipc.examined, ipc.accepted) == (124_452, 1000)
        ranked = "\n".join(
            " ".join(inst.mnemonic for inst in sequence)
            for sequence in finalists
        )
        assert hashlib.sha256(ranked.encode()).hexdigest() == (
            "40f632176b9d8674ba27367ecf3018d0cefbbfe476bfbfe85f00c87375f9c6a8"
        )


class TestErrors:
    def test_empty_pool(self, core_config):
        with pytest.raises(GenerationError):
            search_sequence_space([], core_config, None)

    def test_bad_length(self, candidates, core_config):
        with pytest.raises(GenerationError):
            search_sequence_space(
                candidates[:3], core_config, None, length=0
            )

    def test_bad_keep(self, candidates, core_config):
        with pytest.raises(GenerationError):
            search_sequence_space(
                candidates[:3], core_config, None, keep=0
            )
