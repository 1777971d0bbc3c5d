"""Pure statistics of the benchmark: medians, the percentile rule,
span self time, numeric output comparison and metric records.

Nothing here touches the program, the clock or the file system, so
``perfbench/tests`` checks every rule the printed numbers rest on.
"""

from __future__ import annotations

import math
import re
import statistics

#: A percentile is reported only when at least this many samples lie
#: beyond it; a p99 over 200 samples would rest on two replies.
MIN_BEYOND = 10

#: The kernel's pinned waveform tolerance (volts): an export that
#: differs from its reference byte-wise still counts as correct when
#: every number agrees within it.
TOLERANCE_V = 5e-6

_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def median(values):
    """The median of *values*, or ``None`` when there are none."""
    values = list(values)
    return statistics.median(values) if values else None


def percentile(values, q: float):
    """The nearest-rank *q*-th percentile of *values*, or ``None`` when
    fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    covered = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals.  *spans* are dicts with ``start``, ``end``
    and ``parent`` (an index into *spans*, or ``None``)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return [
        (span["end"] - span["start"])
        - union_length(children.get(index, ()), span["start"], span["end"])
        for index, span in enumerate(spans)
    ]


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones (0 when none ran)."""
    return failed / attempted if attempted else 0.0


def metric(value: float, unit: str) -> dict:
    """One printed metric record."""
    return {"value": value, "unit": unit}


def check_metrics(metrics: dict) -> None:
    """Raise ``ValueError`` unless every name matches ``[A-Za-z0-9_.-]+``
    and every record carries a finite value and a unit."""
    for name, record in metrics.items():
        if not _NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if set(record) != {"value", "unit"} or not record["unit"]:
            raise ValueError(f"metric {name!r} needs a value and a unit")
        value = record["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"metric {name!r} is not a number")
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite")


def numbers_close(a: float, b: float) -> bool:
    """Whether two exported numbers agree within the kernel tolerance
    (absolute for volt-scale values, relative for larger ones)."""
    return abs(a - b) <= TOLERANCE_V * max(1.0, abs(b))


def json_close(a, b) -> bool:
    """Structural equality of two decoded JSON values with numbers
    compared by :func:`numbers_close`."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return numbers_close(float(a), float(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(json_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(json_close, a, b))
    return a == b


def text_close(a: str, b: str) -> bool:
    """Equality of two rendered tables with numbers compared by
    :func:`numbers_close` and everything between them verbatim."""
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return False
    return all(
        numbers_close(float(x), float(y))
        for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b))
    )
