"""Program intermediate representation for generated microbenchmarks.

A :class:`Program` holds its loop as instruction definitions — all that
throughput models, power meters and counters read.  Operand strings
(rotated registers, memory slots, labels) are rendered only when
something reads :attr:`Program.loop_body`, which assembly emission
does.  Dependence freedom comes from the rendering: destinations
rotate through one register pool and sources read from another.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from ..errors import GenerationError
from ..isa.instruction import InstructionDef
from ..isa.operands import OperandKind

__all__ = ["InstructionInstance", "Program"]

#: Register pools: destinations rotate through the first pool, sources
#: read from the second, so no generated instruction depends on another.
_DEST_GPRS = [f"r{i}" for i in range(4, 10)]
_SRC_GPRS = [f"r{i}" for i in range(10, 14)]
_DEST_FPRS = [f"f{i}" for i in range(4, 10)]
_SRC_FPRS = [f"f{i}" for i in range(10, 14)]
_DEST_VRS = [f"v{i}" for i in range(4, 10)]
_SRC_VRS = [f"v{i}" for i in range(10, 14)]
_MEM_SLOTS = [f"{disp}(r2)" for disp in range(0, 4096, 256)]

#: Branch target of label operands inside straight-line bodies.
_SKIP_LABEL = "fallthrough"


@dataclass(frozen=True)
class InstructionInstance:
    """One instruction with materialized operand strings.

    ``operand_values`` are assembler-level operand renderings (register
    names, immediates, base-displacement memory references, labels) in
    the definition's operand order.
    """

    definition: InstructionDef
    operand_values: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        expected = len(self.definition.operands)
        if len(self.operand_values) != expected:
            raise GenerationError(
                f"{self.definition.mnemonic}: expected {expected} operands, "
                f"got {len(self.operand_values)}"
            )

    def render(self) -> str:
        """Assembler text of this instance."""
        if not self.operand_values:
            return self.definition.mnemonic
        return f"{self.definition.mnemonic} " + ",".join(self.operand_values)


class _OperandMaterializer:
    """Stateful operand renderer with register rotation."""

    def __init__(self):
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
                values.append(_SKIP_LABEL)
            else:  # pragma: no cover - enum is closed
                raise GenerationError(f"unsupported operand kind {operand.kind}")
        return InstructionInstance(definition, tuple(values))


def _close_loop(branch: InstructionDef, label: str) -> InstructionInstance:
    """The loop-closing branch: back to *label*, counting on ``r3``."""
    values = tuple(
        label if op.kind is OperandKind.LABEL else "r3" for op in branch.operands
    )
    return InstructionInstance(branch, values)


class Program:
    """A generated microbenchmark: prologue, loop body, trip count.

    ``trip_count`` of ``None`` means an endless loop (the usual shape
    for measurement benchmarks, which are sampled while running).
    ``loop_definitions`` is one loop iteration as plain instruction
    definitions — the view the microarchitecture models consume.

    A program is built from ``loop_definitions`` or from rendered
    ``loop_body`` instances, which are then kept as given.  Otherwise
    ``loop_body`` renders on first read with a fresh register rotation
    and is cached; ``closes_loop`` marks the last definition as the
    loop-closing branch, which targets ``loop_label``.
    """

    def __init__(
        self,
        name: str,
        loop_body: Sequence[InstructionInstance] | None = None,
        prologue: Sequence[InstructionInstance] = (),
        trip_count: int | None = None,
        loop_label: str = "loop",
        *,
        loop_definitions: Sequence[InstructionDef] | None = None,
        closes_loop: bool = False,
    ):
        if loop_body is not None:
            loop_body = list(loop_body)
            loop_definitions = [inst.definition for inst in loop_body]
        self.name = name
        self.loop_definitions = tuple(loop_definitions or ())
        self.prologue = list(prologue)
        self.trip_count = trip_count
        self.loop_label = loop_label
        self.closes_loop = closes_loop
        self._loop_body = loop_body
        if not self.loop_definitions:
            raise GenerationError(f"program {self.name!r} has an empty loop body")

    @property
    def loop_body(self) -> list[InstructionInstance]:
        """One loop iteration with materialized operands."""
        if self._loop_body is None:
            straight = self.loop_definitions
            if self.closes_loop:
                straight = straight[:-1]
            materializer = _OperandMaterializer()
            body = [materializer.materialize(d) for d in straight]
            if self.closes_loop:
                body.append(_close_loop(self.loop_definitions[-1], self.loop_label))
            self._loop_body = body
        return self._loop_body

    @property
    def size(self) -> int:
        """Static instruction count (prologue + loop body)."""
        return len(self.prologue) + len(self.loop_definitions)
