"""Windowed telemetry series: deltas, rates, rolling percentiles."""

from __future__ import annotations

import pytest

from repro.obs import (
    BUCKET_BOUNDS,
    Telemetry,
    TelemetrySeries,
    bucket_percentile,
    series_state,
)


def _bucket_of(value: float) -> int:
    for index, bound in enumerate(BUCKET_BOUNDS):
        if value <= bound:
            return index
    return len(BUCKET_BOUNDS)


# -- bucket_percentile ----------------------------------------------------
def test_bucket_percentile_empty_is_none():
    assert bucket_percentile([0] * (len(BUCKET_BOUNDS) + 1), 95) is None
    assert bucket_percentile([], 50) is None


def test_bucket_percentile_single_bucket_interpolates_within_bounds():
    counts = [0] * (len(BUCKET_BOUNDS) + 1)
    counts[3] = 10
    p50 = bucket_percentile(counts, 50)
    lower = BUCKET_BOUNDS[2]
    upper = BUCKET_BOUNDS[3]
    assert lower < p50 <= upper


def test_bucket_percentile_is_monotone_in_p():
    counts = [0] * (len(BUCKET_BOUNDS) + 1)
    counts[2] = 90
    counts[8] = 10
    values = [bucket_percentile(counts, p) for p in (10, 50, 90, 95, 99)]
    assert values == sorted(values)
    # The slow 10% tail lands in bucket 8's range, not bucket 2's.
    assert values[-1] > BUCKET_BOUNDS[7]


def test_bucket_percentile_overflow_clamps_to_last_bound():
    counts = [0] * (len(BUCKET_BOUNDS) + 1)
    counts[-1] = 5  # all observations beyond the largest finite bound
    assert bucket_percentile(counts, 99) == BUCKET_BOUNDS[-1]


def test_bucket_percentile_rejects_out_of_range_p():
    with pytest.raises(ValueError):
        bucket_percentile([1], 101)
    with pytest.raises(ValueError):
        bucket_percentile([1], -1)


# -- series_state ---------------------------------------------------------
def test_series_state_from_telemetry_carries_exact_buckets():
    telemetry = Telemetry()
    telemetry.increment("runs", 3)
    telemetry.observe("lat", 0.01)
    state = series_state(telemetry)
    assert state["counters"]["runs"] == 3
    entry = state["histograms"]["lat"]
    assert entry["count"] == 1
    assert sum(entry["buckets"]) == 1
    assert entry["buckets"][_bucket_of(0.01)] == 1


def test_series_state_from_snapshot_dict_skips_empty_histograms():
    snapshot = {
        "counters": {"x": 1},
        "timers": {"t": 0.5},
        "histograms": {
            "empty": {"count": 0},
            "full": {"count": 2, "total": 0.2, "buckets": [0, 2]},
        },
    }
    state = series_state(snapshot)
    assert "empty" not in state["histograms"]
    assert state["histograms"]["full"]["buckets"] == [0, 2]
    assert state["timers"]["t"] == 0.5


def test_series_state_rejects_non_source():
    with pytest.raises(TypeError):
        series_state(42)


# -- TelemetrySeries ------------------------------------------------------
def test_first_tick_baselines_and_returns_none():
    telemetry = Telemetry()
    series = TelemetrySeries(telemetry)
    assert series.tick(now=100.0) is None
    assert len(series) == 0


def test_window_rate_and_delta_from_counter_deltas():
    telemetry = Telemetry()
    series = TelemetrySeries(telemetry)
    telemetry.increment("serve.requests", 10)
    series.tick(now=100.0)
    telemetry.increment("serve.requests", 20)
    window = series.tick(now=104.0)
    assert window.delta("serve.requests") == 20
    assert window.rate("serve.requests") == pytest.approx(5.0)
    assert series.rate("serve.requests") == pytest.approx(5.0)


def test_windowed_percentile_sees_only_the_window():
    """A burst of slow observations must dominate the *window*
    percentile even against a long fast history — the exact failure
    mode of cumulative percentiles."""
    telemetry = Telemetry()
    series = TelemetrySeries(telemetry)
    for _ in range(1000):
        telemetry.observe("lat", 0.001)
    series.tick(now=10.0)
    for _ in range(10):
        telemetry.observe("lat", 1.0)
    window = series.tick(now=15.0)
    assert window.hist_count("lat") == 10
    assert window.percentile("lat", 50) > 0.1  # the slow burst, alone


def test_counter_reset_rebaselines_instead_of_negative_rates():
    series = TelemetrySeries()
    series.tick_state({"counters": {"x": 100}, "timers": {},
                       "histograms": {}}, now=1.0)
    # Restarted process: the counter went backwards.
    assert series.tick_state(
        {"counters": {"x": 5}, "timers": {}, "histograms": {}}, now=2.0
    ) is None
    assert series.resets == 1
    window = series.tick_state(
        {"counters": {"x": 8}, "timers": {}, "histograms": {}}, now=3.0
    )
    assert window.delta("x") == 3


def test_ring_buffer_is_bounded():
    series = TelemetrySeries(capacity=3)
    for i in range(10):
        series.tick_state(
            {"counters": {"x": i}, "timers": {}, "histograms": {}},
            now=float(i),
        )
    assert len(series) == 3
    assert series.ticks == 10


def test_pooled_merges_counters_and_buckets():
    telemetry = Telemetry()
    series = TelemetrySeries(telemetry)
    telemetry.increment("n", 1)
    telemetry.observe("lat", 0.01)
    series.tick(now=0.0)
    for now in (1.0, 2.0, 3.0):
        telemetry.increment("n", 2)
        telemetry.observe("lat", 0.01)
        series.tick(now=now)
    pooled = series.pooled(k=3)
    assert pooled.delta("n") == 6
    assert pooled.hist_count("lat") == 3
    assert pooled.duration_s == pytest.approx(3.0)
    assert series.percentile("lat", 95, k=3) <= BUCKET_BOUNDS[_bucket_of(0.01)]


def test_over_threshold_fraction_counts_bad_events():
    telemetry = Telemetry()
    series = TelemetrySeries(telemetry)
    series.tick(now=0.0)
    for _ in range(9):
        telemetry.observe("lat", 0.001)
    telemetry.observe("lat", 2.0)
    window = series.tick(now=5.0)
    # The threshold lands on a bucket bound, so the split is exact.
    threshold = BUCKET_BOUNDS[_bucket_of(0.001)]
    assert window.over_threshold_fraction("lat", threshold) == pytest.approx(0.1)
    assert window.over_threshold_fraction("lat", 10.0) == pytest.approx(0.0)
    assert window.over_threshold_fraction("missing", 1.0) == 0.0


def test_tick_snapshot_diffs_wire_shapes():
    """Successive wire-shape metrics replies diff like live telemetry."""
    series = TelemetrySeries()
    reply = {
        "counters": {"serve.requests": 4},
        "timers": {},
        "histograms": {
            "serve.request.seconds":
                {"count": 4, "total": 0.04, "mean": 0.01,
                 "buckets": [0, 0, 0, 4]},
        },
    }
    series.tick_state(series_state(reply), now=0.0)
    later = {
        "counters": {"serve.requests": 10},
        "timers": {},
        "histograms": {
            "serve.request.seconds":
                {"count": 10, "total": 0.1, "mean": 0.01,
                 "buckets": [0, 0, 0, 10]},
        },
    }
    window = series.tick_state(series_state(later), now=3.0)
    assert window.rate("serve.requests") == pytest.approx(2.0)
    assert window.hist_count("serve.request.seconds") == 6


def test_window_to_dict_round_trips_json_shape():
    series = TelemetrySeries()
    series.tick_state({"counters": {"x": 0}, "timers": {"t": 0.0},
                       "histograms": {}}, now=0.0)
    window = series.tick_state(
        {"counters": {"x": 2}, "timers": {"t": 1.5}, "histograms": {}},
        now=2.0,
    )
    record = window.to_dict()
    assert record["counters"] == {"x": 2}
    assert record["timers"]["t"] == pytest.approx(1.5)


def test_tick_without_source_raises():
    with pytest.raises(ValueError):
        TelemetrySeries().tick()
