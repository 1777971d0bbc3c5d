"""Stable content fingerprints for simulation runs.

A run is fully determined by (a) the chip — its configuration plus the
``chip_id`` that selects the process-variation draw, (b) the per-core
current programs, (c) the run options, and — only when some program
draws random phases — (d) the run tag and phase seed.  The fingerprint
hashes a canonical textual form of exactly those inputs, so two runs
with the same fingerprint produce bit-identical :class:`RunResult`s and
can share one cache entry, across sessions and across processes.

Fully synchronized (or steady) mappings are *deterministic*: the runner
never touches its RNG for them, so the run tag and the phase seed are
excluded from their fingerprint.  That is what lets, e.g., the Fig. 14
two-mapping comparison reuse runs already executed by the Fig. 15
exhaustive enumeration — same chip, same programs, different tags.

Each live :class:`CurrentProgram`'s canonical text is computed once:
a campaign fingerprints the same program objects over and over (every
core of a mapping, every mapping of a sweep).  The memo is keyed by
identity, not by value — frozen dataclasses compare ``1 == 1.0`` and
``0.0 == -0.0`` equal although their texts differ — and holds its
programs weakly, so a program the caller drops (serve decodes fresh
ones for every request) leaves the memo with it.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import fields, is_dataclass
from typing import Sequence

import numpy as np

from ..machine.chip import Chip
from ..machine.runner import RunOptions
from ..machine.workload import CurrentProgram, is_deterministic_mapping

__all__ = [
    "canonical",
    "chip_fingerprint",
    "run_fingerprint",
    "is_deterministic_mapping",
    "content_key",
]


def canonical(value: object) -> str:
    """A deterministic textual form of *value* for hashing.

    Dataclasses are expanded field by field (class name included), dicts
    are sorted by key, sequences are expanded element-wise, numpy
    scalars collapse to Python numbers.  The result is stable across
    processes (no ``id()``/``hash()`` involvement in the text).
    """
    if type(value) is CurrentProgram:
        return _program_text(value)
    if is_dataclass(value) and not isinstance(value, type):
        return _dataclass_text(value)
    if isinstance(value, dict):
        items = ",".join(
            f"{canonical(k)}:{canonical(v)}" for k, v in sorted(value.items())
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(item) for item in value) + "]"
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return canonical(value.item())
    if isinstance(value, float):
        return repr(value)
    return repr(value)


def _dataclass_text(value: object) -> str:
    parts = ",".join(
        f"{f.name}={canonical(getattr(value, f.name))}" for f in fields(value)
    )
    return f"{type(value).__name__}({parts})"


#: ``id(program)`` → (weak reference to the program, its canonical
#: text).  An entry leaves when its program is collected; a reader
#: checks the reference, so a recycled id can never return another
#: program's text.
_PROGRAM_TEXT: dict[int, tuple[weakref.ref, str]] = {}


def _program_text(program: CurrentProgram) -> str:
    key = id(program)
    entry = _PROGRAM_TEXT.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    text = _dataclass_text(program)

    def forget(ref: weakref.ref) -> None:
        if _PROGRAM_TEXT.get(key, (None,))[0] is ref:
            _PROGRAM_TEXT.pop(key, None)

    _PROGRAM_TEXT[key] = (weakref.ref(program, forget), text)
    return text


def content_key(*parts: object) -> str:
    """SHA-256 hex digest of the canonical form of *parts* — the
    generic content-addressing primitive (the run fingerprint below and
    e.g. the GA fitness cache both build on it)."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(canonical(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def chip_fingerprint(chip: Chip) -> str:
    """Canonical identity of one chip instance: its full configuration
    (PDN, core, skitter, seeds, SSN weights) plus the variation-draw
    ``chip_id``."""
    return canonical((type(chip).__name__, chip.config, chip.chip_id))


def run_fingerprint(
    chip_fp: str,
    mapping: Sequence[CurrentProgram | None],
    options: RunOptions,
    run_tag: object,
) -> str:
    """The content address of one run.

    ``options.seed`` only feeds the phase draws, so it is folded into
    the phase part and dropped entirely for deterministic mappings.
    """
    options_sig = {
        f.name: getattr(options, f.name)
        for f in fields(options)
        if f.name != "seed"
    }
    if is_deterministic_mapping(mapping):
        phase_part: object = "deterministic"
    else:
        phase_part = ("tag", run_tag, "seed", options.seed)
    return content_key(chip_fp, list(mapping), options_sig, phase_part)
