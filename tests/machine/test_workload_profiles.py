"""Utilization trace tests."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workloads.traces import UtilizationTrace, synthetic_utilization_trace


class TestUtilizationTraces:
    def test_shape_and_bounds(self):
        trace = synthetic_utilization_trace(seed=1)
        assert trace.counts.size == 288
        assert trace.counts.min() >= 0
        assert trace.counts.max() <= 6
        assert trace.duration_s == pytest.approx(288 * 300.0)

    def test_deterministic(self):
        a = synthetic_utilization_trace(seed=7)
        b = synthetic_utilization_trace(seed=7)
        assert np.array_equal(a.counts, b.counts)

    def test_seed_changes_trace(self):
        a = synthetic_utilization_trace(seed=1)
        b = synthetic_utilization_trace(seed=2)
        assert not np.array_equal(a.counts, b.counts)

    def test_mean_utilization_tracks_load_band(self):
        trace = synthetic_utilization_trace(base_load=0.2, peak_load=0.6, noise=0.0)
        assert 0.2 <= trace.mean_utilization <= 0.6

    def test_validation(self):
        with pytest.raises(ConfigError):
            UtilizationTrace(counts=np.array([]), interval_s=1.0)
        with pytest.raises(ConfigError):
            UtilizationTrace(counts=np.array([7]), interval_s=1.0)
        with pytest.raises(ConfigError):
            synthetic_utilization_trace(base_load=0.9, peak_load=0.2)
