"""Loop builders for generated microbenchmarks.

The EPI skeleton follows the paper exactly: "an endless loop with 4000
repetitions of the instruction, without dependencies".  The builders
lay out instruction definitions only; the program renders dependence-free
operands when its assembly is read (:mod:`.program`).
"""

from __future__ import annotations

from typing import Sequence

from ..errors import GenerationError
from ..isa.instruction import InstructionDef
from ..isa.isa import Isa
from .program import Program

__all__ = [
    "build_epi_loop",
    "build_sequence_loop",
    "find_loop_branch",
    "EPI_REPETITIONS",
]

#: Repetitions of the profiled instruction in an EPI microbenchmark.
EPI_REPETITIONS = 4000


def find_loop_branch(isa: Isa) -> InstructionDef:
    """Pick the loop-closing branch-on-count instruction.

    Prefers ``BCT``-style branch-on-count mnemonics, then any
    group-ending branch; deterministic for a given ISA.
    """
    for mnemonic in ("BCT", "BCTG", "BRC", "J"):
        if mnemonic in isa:
            inst = isa[mnemonic]
            if inst.ends_group:
                return inst
    for inst in isa:
        if inst.ends_group:
            return inst
    raise GenerationError("ISA has no branch instruction to close loops")


def build_epi_loop(
    isa: Isa,
    definition: InstructionDef,
    repetitions: int = EPI_REPETITIONS,
    trip_count: int | None = None,
) -> Program:
    """The EPI microbenchmark: *repetitions* dependence-free copies of
    one instruction, closed by a loop branch."""
    if repetitions < 1:
        raise GenerationError("repetitions must be >= 1")
    return Program(
        name=f"epi-{definition.mnemonic}",
        loop_definitions=(definition,) * repetitions + (find_loop_branch(isa),),
        trip_count=trip_count,
        loop_label=f"epi_{definition.mnemonic.lower()}",
        closes_loop=True,
    )


def build_sequence_loop(
    isa: Isa,
    sequence: Sequence[InstructionDef],
    unroll: int = 1,
    trip_count: int | None = None,
    name: str | None = None,
    close_with_branch: bool = True,
) -> Program:
    """A loop repeating *sequence* ``unroll`` times per iteration.

    Used by the max-power search (sequence evaluation) and by the
    stressmark builder (high/low activity phases).
    """
    if not sequence:
        raise GenerationError("sequence is empty")
    if unroll < 1:
        raise GenerationError("unroll must be >= 1")
    body = tuple(sequence) * unroll
    if close_with_branch:
        body += (find_loop_branch(isa),)
    return Program(
        name=name or "seq-" + "-".join(d.mnemonic for d in sequence),
        loop_definitions=body,
        trip_count=trip_count,
        loop_label="seq_loop",
        closes_loop=close_with_branch,
    )
