"""Vectorized sequence-space search (paper Figure 5, steps 2-4 fused).

The scalar pipeline — :func:`~repro.core.sequences.enumerate_sequences`
into :func:`~repro.core.filters.microarch_filter` into
:func:`~repro.core.filters.ipc_filter` — materializes every one of the
9^6 = 531 441 candidate tuples and walks each through the group-forming
automaton and the throughput model one Python call at a time.

This module evaluates the same funnel over the space as a *prefix
tree*: every sequence of length k extends one of length k − 1 by one
candidate, and shares its first k − 1 instructions with ``pool − 1``
siblings.  Every per-sequence quantity (the structural counts, the
dispatch-group automaton's state and closed groups, the per-unit loads,
the serialize penalty, the µop and EPI-weight sums) is a fold over the
positions, so level k holds its level k − 1 value repeated once per
candidate plus the table entry of the k-th digit.  Each level is one
broadcast over the previous one; no per-sequence digit matrix is built,
and only the final ``keep`` winners are decoded from their flat index
and materialized as instruction tuples.

Exact-parity contract with the scalar filters (enforced by tests):

* flat indices are the lexicographic order of ``itertools.product`` —
  digit 0 varies slowest, the digit a level appends fastest;
* the structural constraints are totals-based (the scalar early-return
  is just short-circuiting of the same threshold checks);
* the dispatch-group automaton is :func:`~repro.uarch.grouping.form_groups`
  tabulated over its (open-group size, memory ops in it) states,
  decision for decision;
* IPC scores accumulate in position order (adding 0.0 for
  non-contributing positions, which is exact for the non-negative
  terms involved), so every score is bit-identical to
  :func:`~repro.uarch.throughput.analyze_loop`'s, and the final
  ranking uses the same ``(-ipc, -weight, index)`` key with the unique
  enumeration index as tie-break.  The scores only matter for the
  microarchitectural survivors, so the last position is added to the
  survivors' prefixes alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import GenerationError
from ..isa.instruction import InstructionDef
from ..uarch.resources import CoreConfig
from .filters import FilterConstraints, FilterStats
from .sequences import DEFAULT_SEQUENCE_LENGTH

__all__ = ["search_sequence_space"]


def _extend(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The next level of the prefix tree.  *values* holds one row per
    quantity and one column per prefix, *table* one row per quantity
    and one column per candidate: every prefix's value is repeated once
    per candidate, plus that candidate's entry.  Columns stay in
    enumeration order (the appended digit varies fastest)."""
    return (values[:, :, None] + table[:, None, :]).reshape(len(table), -1)


def _count_table(
    candidates: Sequence[InstructionDef], constraints: FilterConstraints
) -> tuple[np.ndarray, np.ndarray]:
    """Per-candidate increments of the structurally limited counts (one
    row each: branches, memory ops, non-pipelined ops, then one per
    issue class) and the limit of each row."""
    classes = list(dict.fromkeys(c.issue_class for c in candidates))
    table = np.array(
        [[c.is_branch for c in candidates],
         [c.memory for c in candidates],
         [not c.pipelined for c in candidates]]
        + [[c.issue_class == issue_class for c in candidates]
           for issue_class in classes]
    )
    limits = np.array(
        [constraints.max_branches, constraints.max_memory,
         constraints.max_nonpipelined]
        + [constraints.max_per_issue_class] * len(classes)
    )
    return table, limits


def _group_automaton(
    candidates: Sequence[InstructionDef], config: CoreConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`~repro.uarch.grouping.form_groups` as a finite automaton.

    States are the (instructions, memory ops) of the open group, state
    0 the empty one; only the states reachable from it are numbered.
    Returns ``(next_state, closed, still_open)``: ``next_state[s, d]``
    and ``closed[s, d]`` are the state after appending candidate *d* in
    state *s* and the groups that closes, ``still_open[s]`` is 1 when
    state *s* leaves a group for the final close."""
    width = config.dispatch_width
    max_mem = config.max_memory_per_group
    states = {(0, 0): 0}
    rows: list[list[tuple[tuple[int, int], int]]] = []
    pending = [(0, 0)]
    while pending:
        cur, mic = pending.pop(0)
        row = []
        for inst in candidates:
            closed = 0
            after = (cur, mic)
            if inst.group_alone:
                # close the open group, dispatch alone
                closed, after = int(cur > 0) + 1, (0, 0)
            else:
                if after[0] >= width:
                    closed, after = closed + 1, (0, 0)
                if inst.memory and after[1] >= max_mem:
                    closed, after = closed + int(after[0] > 0), (0, 0)
                after = (after[0] + 1, after[1] + int(inst.memory))
                if inst.ends_group:
                    closed, after = closed + 1, (0, 0)
            if after not in states:
                states[after] = len(states)
                pending.append(after)
            row.append((after, closed))
        rows.append(row)
    next_state = np.array([[states[after] for after, _ in row] for row in rows])
    closed = np.array([[n for _, n in row] for row in rows], dtype=np.int32)
    still_open = np.array([int(cur > 0) for cur, _ in states], dtype=np.int32)
    return next_state, closed, still_open


def _score_table(
    candidates: Sequence[InstructionDef],
    config: CoreConfig,
    weights: dict[str, float],
) -> np.ndarray:
    """Per-candidate summands of the IPC and tie-break scores, one row
    each: µops (small integers, exact in float64), serialize penalty,
    EPI weight, then one load row per functional unit (0.0 off the
    candidate's own unit)."""
    units = list(dict.fromkeys(c.unit for c in candidates))
    # Same expression, same operand types as the scalar model's
    # ``inst.uops * occupancy / config.unit_count(inst.unit)``.
    loads = [
        c.uops * (float(c.latency) if not c.pipelined else 1.0)
        / config.unit_count(c.unit)
        for c in candidates
    ]
    return np.array(
        [[float(c.uops) for c in candidates],
         [c.latency - 1.0 if c.serializing else 0.0 for c in candidates],
         [weights.get(c.mnemonic, 0.0) for c in candidates]]
        + [[load if c.unit == unit else 0.0
            for c, load in zip(candidates, loads)]
           for unit in units]
    )


def search_sequence_space(
    candidates: Sequence[InstructionDef],
    config: CoreConfig,
    constraints: FilterConstraints | None = None,
    length: int = DEFAULT_SEQUENCE_LENGTH,
    keep: int = 1000,
    epi_weights: dict[str, float] | None = None,
) -> tuple[list[tuple[InstructionDef, ...]], FilterStats, FilterStats]:
    """Run enumeration + microarchitectural filter + IPC filter over
    the full ``len(candidates) ** length`` space.

    Returns ``(finalists, microarch_stats, ipc_stats)`` — element-wise
    identical to chaining the scalar
    :func:`~repro.core.sequences.enumerate_sequences` /
    :func:`~repro.core.filters.microarch_filter` /
    :func:`~repro.core.filters.ipc_filter` pipeline.
    """
    if not candidates:
        raise GenerationError("empty candidate pool")
    if length < 1:
        raise GenerationError("sequence length must be positive")
    if keep < 1:
        raise GenerationError("must keep at least one sequence")
    constraints = constraints or FilterConstraints()
    pool = len(candidates)
    total = pool ** length
    count_table, limits = _count_table(candidates, constraints)
    count_table = count_table.astype(np.min_scalar_type(length))  # counts <= length
    next_state, closed, still_open = _group_automaton(candidates, config)
    score_table = _score_table(candidates, config, epi_weights or {})

    # -- microarchitectural filter, level by level from the empty prefix --
    counts = np.zeros((len(count_table), 1), dtype=count_table.dtype)
    state = np.zeros(1, dtype=np.intp)
    groups = np.zeros(1, dtype=np.int32)
    scores = np.zeros((len(score_table), 1))
    for position in range(length):
        counts = _extend(counts, count_table)
        groups = (groups[:, None] + closed[state]).ravel()
        state = next_state[state].ravel()
        if position < length - 1:
            scores = _extend(scores, score_table)
    groups += still_open[state]
    ok = (counts <= limits[:, None]).all(axis=0)
    ok &= (length / groups) >= constraints.required_group_size
    micro_stats = FilterStats(examined=total, accepted=int(ok.sum()))
    if not micro_stats.accepted:
        return [], micro_stats, FilterStats()

    survivors = np.flatnonzero(ok)          # ascending = enumeration order
    sgroups = groups[survivors].astype(float)
    del counts, state, groups, ok

    # -- IPC scoring (bit-identical to analyze_loop, see module doc) --
    scores = (
        scores.take(survivors // pool, axis=1)
        + score_table.take(survivors % pool, axis=1)
    )
    uops, penalty, weight = scores[0], scores[1], scores[2]
    cycles = np.maximum(sgroups, scores[3:].max(axis=0)) + penalty
    ipc = uops / cycles

    # sort by (-ipc, -weight, enumeration index); lexsort's last key is
    # primary and the unique index makes the order total, so stability
    # semantics cannot diverge from the scalar sort.
    order = np.lexsort((survivors, -weight, -ipc))
    top = survivors[order[: min(keep, survivors.size)]]
    digits = np.stack(np.unravel_index(top, (pool,) * length), axis=1)
    finalists = [tuple(candidates[digit] for digit in row) for row in digits]
    ipc_stats = FilterStats(examined=survivors.size, accepted=len(finalists))
    return finalists, micro_stats, ipc_stats
