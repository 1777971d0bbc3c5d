"""Dispatch-group formation.

The core dispatches instructions in groups of up to
``dispatch_width`` (three).  Group formation follows the rules the
paper's microarchitectural filter encodes:

* a branch-like instruction (``ends_group``) closes its group;
* a cracked/complex instruction (``group_alone``) dispatches alone;
* at most ``max_memory_per_group`` memory operations share a group.

Groups never straddle loop iterations because generated loops always
close with a branch.
"""

from __future__ import annotations

from typing import Sequence

from ..isa.instruction import InstructionDef
from .resources import CoreConfig

__all__ = ["form_groups"]


def form_groups(
    body: Sequence[InstructionDef], config: CoreConfig
) -> list[list[InstructionDef]]:
    """Split one loop iteration *body* into dispatch groups."""
    groups: list[list[InstructionDef]] = []
    current: list[InstructionDef] = []
    memory_in_current = 0

    def close() -> None:
        nonlocal current, memory_in_current
        if current:
            groups.append(current)
            current = []
            memory_in_current = 0

    for inst in body:
        if inst.group_alone:
            close()
            groups.append([inst])
            continue
        if len(current) >= config.dispatch_width:
            close()
        if inst.memory and memory_in_current >= config.max_memory_per_group:
            close()
        current.append(inst)
        if inst.memory:
            memory_in_current += 1
        if inst.ends_group:
            close()
    close()
    return groups
