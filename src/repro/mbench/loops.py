"""Loop builders for generated microbenchmarks.

The EPI skeleton follows the paper exactly: "an endless loop with 4000
repetitions of the instruction, without dependencies".  Dependence
freedom is achieved by rotating destination registers through a pool
and reading from registers outside it.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ..errors import GenerationError
from ..isa.instruction import InstructionDef
from ..isa.isa import Isa
from ..isa.operands import OperandKind
from .program import InstructionInstance, Program

__all__ = [
    "build_epi_loop",
    "build_sequence_loop",
    "find_loop_branch",
    "EPI_REPETITIONS",
]

#: Repetitions of the profiled instruction in an EPI microbenchmark.
EPI_REPETITIONS = 4000

#: Register pools: destinations rotate through the first pool, sources
#: read from the second, so no generated instruction depends on another.
_DEST_GPRS = [f"r{i}" for i in range(4, 10)]
_SRC_GPRS = [f"r{i}" for i in range(10, 14)]
_DEST_FPRS = [f"f{i}" for i in range(4, 10)]
_SRC_FPRS = [f"f{i}" for i in range(10, 14)]
_DEST_VRS = [f"v{i}" for i in range(4, 10)]
_SRC_VRS = [f"v{i}" for i in range(10, 14)]
_MEM_SLOTS = [f"{disp}(r2)" for disp in range(0, 4096, 256)]


class _OperandMaterializer:
    """Stateful operand renderer with register rotation."""

    def __init__(self, skip_label: str):
        self.skip_label = skip_label
        self._dest = {
            OperandKind.GPR: itertools.cycle(_DEST_GPRS),
            OperandKind.FPR: itertools.cycle(_DEST_FPRS),
            OperandKind.VR: itertools.cycle(_DEST_VRS),
        }
        self._src = {
            OperandKind.GPR: itertools.cycle(_SRC_GPRS),
            OperandKind.FPR: itertools.cycle(_SRC_FPRS),
            OperandKind.VR: itertools.cycle(_SRC_VRS),
        }
        self._mem = itertools.cycle(_MEM_SLOTS)

    def materialize(self, definition: InstructionDef) -> InstructionInstance:
        values: list[str] = []
        for operand in definition.operands:
            if operand.kind in self._dest:
                pool = self._dest if operand.is_written else self._src
                values.append(next(pool[operand.kind]))
            elif operand.kind is OperandKind.IMMEDIATE:
                values.append("7")
            elif operand.kind is OperandKind.MEMORY:
                values.append(next(self._mem))
            elif operand.kind is OperandKind.LABEL:
                # Branch targets inside straight-line bodies fall
                # through to the next instruction (never-taken
                # compare-and-branch keeps the front end busy without
                # redirecting fetch).
                values.append(self.skip_label)
            else:  # pragma: no cover - enum is closed
                raise GenerationError(f"unsupported operand kind {operand.kind}")
        return InstructionInstance(definition, tuple(values))


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


def _close_loop(
    isa: Isa, body: list[InstructionInstance], label: str
) -> list[InstructionInstance]:
    branch = find_loop_branch(isa)
    values = tuple(
        label if op.kind is OperandKind.LABEL else "r3"
        for op in branch.operands
    ) if branch.operands else ()
    body.append(InstructionInstance(branch, values))
    return body


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
    label = f"epi_{definition.mnemonic.lower()}"
    materializer = _OperandMaterializer(skip_label="fallthrough")
    body = [materializer.materialize(definition) for _ in range(repetitions)]
    body = _close_loop(isa, body, label)
    return Program(
        name=f"epi-{definition.mnemonic}",
        loop_body=body,
        trip_count=trip_count,
        loop_label=label,
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
    label = "seq_loop"
    materializer = _OperandMaterializer(skip_label="fallthrough")
    body = [
        materializer.materialize(definition)
        for _ in range(unroll)
        for definition in sequence
    ]
    if close_with_branch:
        body = _close_loop(isa, body, label)
    return Program(
        name=name or "seq-" + "-".join(d.mnemonic for d in sequence),
        loop_body=body,
        trip_count=trip_count,
        loop_label=label,
    )
