"""The paper's primary contribution: systematic dI/dt stressmark
generation.

The methodology (paper Figure 4) is a pipeline:

1. **EPI profiling** (:mod:`.epi`) — generate one microbenchmark per
   ISA instruction, measure its power, rank (Table I).
2. **Max-power instruction sequence search** (:mod:`.candidates`,
   :mod:`.sequences`, :mod:`.filters`, :mod:`.search` — paper
   Figure 5) — select top candidates per unit/issue class, enumerate
   all length-6 combinations, filter microarchitecturally (dispatch
   group size, branch/class limits), filter by IPC, evaluate the
   survivors' power, pick the winner.
3. **Min/medium-power sequences** (:mod:`.minpower`,
   :mod:`.mediumpower`) — the ranking's tail gives the minimum-power
   sequence (long-latency stalling instructions, not NOPs); a
   dilution search hits any intermediate power target.
4. **Stressmark assembly** (:mod:`.stressmark`, :mod:`.sync` — paper
   Figure 6) — concatenate high/low sequences into a loop sized for a
   target stimulus frequency, with configurable ΔI magnitude, number
   of consecutive ΔI events, and TOD-based synchronization with
   programmable 62.5 ns misalignment.

:mod:`.generator` wraps the pipeline in a single façade;
:mod:`.genetic` implements the black-box genetic-algorithm baseline
(the approach of the AUDIT line of work the paper contrasts with).
"""

from .epi import EpiEntry, EpiProfile, generate_epi_profile
from .ranking import render_epi_table
from .candidates import select_candidates
from .sequences import enumerate_sequences
from .filters import FilterStats, ipc_filter, microarch_filter
from .search import MaxPowerSearchResult, search_max_power_sequence
from .minpower import min_power_sequence
from .mediumpower import medium_power_sequence
from .stressmark import DidtStressmark, StressmarkBuilder, StressmarkSpec
from .sync import spread_offsets, offset_assignments
from .generator import StressmarkGenerator
from .genetic import GeneticSearchResult, genetic_max_power_search

__all__ = [
    "EpiEntry",
    "EpiProfile",
    "generate_epi_profile",
    "render_epi_table",
    "select_candidates",
    "enumerate_sequences",
    "FilterStats",
    "microarch_filter",
    "ipc_filter",
    "MaxPowerSearchResult",
    "search_max_power_sequence",
    "min_power_sequence",
    "medium_power_sequence",
    "StressmarkSpec",
    "DidtStressmark",
    "StressmarkBuilder",
    "spread_offsets",
    "offset_assignments",
    "StressmarkGenerator",
    "GeneticSearchResult",
    "genetic_max_power_search",
]
