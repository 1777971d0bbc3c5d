"""ISA container with mnemonic lookup."""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import IsaError
from .instruction import InstructionDef

__all__ = ["Isa"]


class Isa:
    """An immutable collection of instruction definitions, iterable in
    definition order and indexed by mnemonic."""

    def __init__(self, name: str, instructions: Iterable[InstructionDef]):
        self.name = name
        self._by_mnemonic: dict[str, InstructionDef] = {}
        for inst in instructions:
            if inst.mnemonic in self._by_mnemonic:
                raise IsaError(f"duplicate mnemonic {inst.mnemonic!r}")
            self._by_mnemonic[inst.mnemonic] = inst
        if not self._by_mnemonic:
            raise IsaError("an ISA needs at least one instruction")
        self._ordered = tuple(self._by_mnemonic.values())

    # -- basic container protocol --------------------------------------
    def __len__(self) -> int:
        return len(self._ordered)

    def __iter__(self) -> Iterator[InstructionDef]:
        return iter(self._ordered)

    def __contains__(self, mnemonic: str) -> bool:
        return mnemonic in self._by_mnemonic

    def __getitem__(self, mnemonic: str) -> InstructionDef:
        try:
            return self._by_mnemonic[mnemonic]
        except KeyError:
            raise IsaError(f"unknown instruction {mnemonic!r}") from None

    @property
    def mnemonics(self) -> list[str]:
        """All mnemonics in definition order."""
        return [inst.mnemonic for inst in self._ordered]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Isa({self.name!r}, {len(self)} instructions)"
