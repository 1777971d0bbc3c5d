"""Windowed time-series over :class:`~repro.obs.metrics.Telemetry`.

The metrics layer accumulates *cumulative* counters and histograms —
ideal for post-mortems, useless for "what is the service doing right
now".  This module closes that gap with periodic snapshot deltas: a
:class:`TelemetrySeries` is ticked every few seconds, differences the
current state against the previous tick, and keeps the resulting
:class:`SeriesWindow` records in a bounded ring buffer.

* **Rates** come from counter/timer deltas divided by the window
  duration (``serve.requests`` delta over a 5 s window → qps).
* **Rolling percentiles** come from histogram *bucket-count* deltas:
  unlike the decimating sample reservoir, the log-spaced bucket
  counters (:data:`~repro.obs.metrics.BUCKET_BOUNDS`) are exact and
  monotone, so subtracting two snapshots yields the exact bucket
  distribution of just that window, from which
  :func:`bucket_percentile` interpolates p50/p95/p99.

The serve metrics ticker ticks a series from its live
:class:`Telemetry`, reduced by :func:`series_state`; the fleet's live
status ticks one from counters summed over its workers' sidecars.

Counter resets (a restarted service, ``Telemetry.reset``) surface as a
negative delta; the series re-baselines and skips that window instead
of reporting garbage negative rates — the same semantics a Prometheus
``rate()`` applies across target restarts.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from .metrics import BUCKET_BOUNDS, Telemetry

__all__ = [
    "SERIES_CAPACITY",
    "SeriesWindow",
    "TelemetrySeries",
    "bucket_percentile",
    "series_state",
]

#: Default ring-buffer capacity: at a 5 s window this retains the last
#: 20 minutes of operational history at fixed memory.
SERIES_CAPACITY = 240


def bucket_percentile(
    counts,
    p: float,
    bounds: tuple[float, ...] = BUCKET_BOUNDS,
) -> float | None:
    """Estimate the *p*-th percentile from per-bucket (non-cumulative)
    counts over *bounds*, interpolating linearly inside the bucket.

    ``None`` when the counts are empty.  Values in the +Inf overflow
    bucket clamp to the largest finite bound (they are, by
    construction, "at least that slow").
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100] (got {p})")
    total = sum(counts)
    if total <= 0:
        return None
    rank = max(1, math.ceil(p / 100.0 * total))
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        if not bucket_count:
            continue
        cumulative += bucket_count
        if cumulative >= rank:
            if index >= len(bounds):
                return bounds[-1]
            upper = bounds[index]
            lower = bounds[index - 1] if index else 0.0
            fraction = (rank - (cumulative - bucket_count)) / bucket_count
            return lower + (upper - lower) * fraction
    return bounds[-1]


def series_state(source) -> dict:
    """Reduce a :class:`Telemetry` instance *or* a wire-shape snapshot
    dict (``Telemetry.snapshot()`` / serve ``metrics`` reply) to the
    minimal cumulative state the series layer diffs: counters, timers,
    and per-histogram ``{count, total, buckets}``."""
    if isinstance(source, Telemetry):
        return {
            "counters": dict(source.counters),
            "timers": dict(source.timers),
            "histograms": {
                name: {
                    "count": histogram.count,
                    "total": histogram.total,
                    "buckets": list(histogram.buckets),
                }
                for name, histogram in source.histograms.items()
            },
        }
    if not isinstance(source, dict):
        raise TypeError(
            f"series source must be Telemetry or snapshot dict "
            f"(got {type(source).__name__})"
        )
    histograms = {}
    for name, summary in source.get("histograms", {}).items():
        if not isinstance(summary, dict) or not summary.get("count"):
            continue
        histograms[name] = {
            "count": int(summary["count"]),
            "total": float(summary.get("total", 0.0)),
            "buckets": [int(c) for c in summary.get("buckets", ())],
        }
    return {
        "counters": dict(source.get("counters", {})),
        "timers": dict(source.get("timers", {})),
        "histograms": histograms,
    }


@dataclass
class SeriesWindow:
    """One window's worth of activity: deltas between two snapshots."""

    t_start: float
    t_end: float
    counters: dict = field(default_factory=dict)
    timers: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return max(self.t_end - self.t_start, 1e-9)

    # -- counters -------------------------------------------------------
    def delta(self, name: str) -> float:
        return self.counters.get(name, 0)

    def rate(self, name: str) -> float:
        """Counter delta per second over this window."""
        return self.counters.get(name, 0) / self.duration_s

    def ratio(self, numerator: str, denominator_total: list[str]) -> float:
        """Counter delta ratio (0.0 when the denominator is empty)."""
        total = sum(self.counters.get(name, 0) for name in denominator_total)
        return self.counters.get(numerator, 0) / total if total else 0.0

    # -- histograms -----------------------------------------------------
    def hist_count(self, name: str) -> int:
        return int(self.histograms.get(name, {}).get("count", 0))

    def percentile(self, name: str, p: float) -> float | None:
        """Windowed percentile of histogram *name* from bucket deltas."""
        entry = self.histograms.get(name)
        if not entry:
            return None
        return bucket_percentile(entry.get("buckets", ()), p)

    def over_threshold_fraction(self, name: str, threshold: float) -> float:
        """Fraction of this window's observations above *threshold* —
        the service-level indicator the SLO layer burns budget on.
        Computed from the bucket deltas (bound ≤ threshold counts as
        good), so it needs no samples."""
        entry = self.histograms.get(name)
        if not entry:
            return 0.0
        counts = entry.get("buckets", ())
        total = sum(counts)
        if not total:
            return 0.0
        good = 0
        for index, bucket_count in enumerate(counts):
            if index < len(BUCKET_BOUNDS) and BUCKET_BOUNDS[index] <= threshold:
                good += bucket_count
        return (total - good) / total

    def to_dict(self) -> dict:
        """JSON-friendly form (what live-status files carry)."""
        return {
            "t_start": round(self.t_start, 6),
            "t_end": round(self.t_end, 6),
            "counters": dict(self.counters),
            "timers": {k: round(v, 6) for k, v in self.timers.items()},
            "histograms": {
                name: {
                    "count": entry["count"],
                    "total": round(entry["total"], 6),
                    "buckets": list(entry["buckets"]),
                }
                for name, entry in self.histograms.items()
            },
        }


class TelemetrySeries:
    """Ring buffer of :class:`SeriesWindow` deltas over a telemetry
    source, ticked periodically by the caller.

    Thread-safe: the serve ticker thread ticks while request handlers
    read ``latest()``/``rate()`` for gauges.
    """

    def __init__(self, source=None, capacity: int = SERIES_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.source = source
        self.windows: deque[SeriesWindow] = deque(maxlen=capacity)
        self.ticks = 0
        self.resets = 0
        self._lock = threading.Lock()
        self._last_ts: float | None = None
        self._last_state: dict | None = None

    # -- ticking --------------------------------------------------------
    def tick(self, now: float | None = None) -> SeriesWindow | None:
        """Snapshot the attached source and append the delta window.

        The first tick establishes the baseline and returns ``None``;
        so does a tick that detects a counter reset (the series
        re-baselines instead of emitting negative rates).
        """
        if self.source is None:
            raise ValueError("series has no attached source; use tick_state")
        return self.tick_state(series_state(self.source), now)

    def tick_state(self, state: dict, now: float | None = None):
        now = time.time() if now is None else float(now)
        with self._lock:
            self.ticks += 1
            previous_ts, previous = self._last_ts, self._last_state
            self._last_ts, self._last_state = now, state
            if previous is None:
                return None
            window = _diff(previous, state, previous_ts, now)
            if window is None:
                self.resets += 1
                return None
            self.windows.append(window)
            return window

    # -- reading --------------------------------------------------------
    def latest(self) -> SeriesWindow | None:
        with self._lock:
            return self.windows[-1] if self.windows else None

    def last(self, k: int = 1) -> list[SeriesWindow]:
        with self._lock:
            if k <= 0:
                return []
            return list(self.windows)[-k:]

    def pooled(self, k: int = 1) -> SeriesWindow | None:
        """The last *k* windows merged into one (rates and percentiles
        then smooth over ``k × window_s`` instead of one window)."""
        windows = self.last(k)
        if not windows:
            return None
        merged = SeriesWindow(
            t_start=windows[0].t_start, t_end=windows[-1].t_end
        )
        for window in windows:
            for name, delta in window.counters.items():
                merged.counters[name] = merged.counters.get(name, 0) + delta
            for name, delta in window.timers.items():
                merged.timers[name] = merged.timers.get(name, 0.0) + delta
            for name, entry in window.histograms.items():
                into = merged.histograms.setdefault(
                    name, {"count": 0, "total": 0.0, "buckets": []}
                )
                into["count"] += entry["count"]
                into["total"] += entry["total"]
                buckets = entry.get("buckets", ())
                if len(into["buckets"]) < len(buckets):
                    into["buckets"].extend(
                        [0] * (len(buckets) - len(into["buckets"]))
                    )
                for index, bucket_count in enumerate(buckets):
                    into["buckets"][index] += bucket_count
        return merged

    def rate(self, name: str, k: int = 1) -> float:
        pooled = self.pooled(k)
        return pooled.rate(name) if pooled else 0.0

    def percentile(self, name: str, p: float, k: int = 1) -> float | None:
        pooled = self.pooled(k)
        return pooled.percentile(name, p) if pooled else None

    def __len__(self) -> int:
        with self._lock:
            return len(self.windows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TelemetrySeries(windows={len(self.windows)}, ticks={self.ticks})"


def _diff(previous: dict, state: dict, t_start, t_end) -> SeriesWindow | None:
    """Delta two cumulative states; ``None`` signals a counter reset."""
    counters: dict = {}
    for name, value in state.get("counters", {}).items():
        delta = value - previous.get("counters", {}).get(name, 0)
        if delta < 0:
            return None
        if delta:
            counters[name] = delta
    timers: dict = {}
    for name, value in state.get("timers", {}).items():
        delta = value - previous.get("timers", {}).get(name, 0.0)
        if delta < -1e-9:
            return None
        if delta > 0:
            timers[name] = delta
    histograms: dict = {}
    for name, entry in state.get("histograms", {}).items():
        before = previous.get("histograms", {}).get(
            name, {"count": 0, "total": 0.0, "buckets": []}
        )
        count_delta = entry["count"] - before.get("count", 0)
        if count_delta < 0:
            return None
        if not count_delta:
            continue
        old_buckets = list(before.get("buckets", ()))
        new_buckets = list(entry.get("buckets", ()))
        if len(old_buckets) < len(new_buckets):
            old_buckets.extend([0] * (len(new_buckets) - len(old_buckets)))
        bucket_deltas = []
        for new_count, old_count in zip(new_buckets, old_buckets):
            bucket_delta = new_count - old_count
            if bucket_delta < 0:
                return None
            bucket_deltas.append(bucket_delta)
        histograms[name] = {
            "count": count_delta,
            "total": entry["total"] - before.get("total", 0.0),
            "buckets": bucket_deltas,
        }
    return SeriesWindow(
        t_start=t_start,
        t_end=t_end,
        counters=counters,
        timers=timers,
        histograms=histograms,
    )
