"""The DESIGN.md §4 calibration targets, read from the exported
``data`` of the contract's full-fidelity ``run all``: the shapes the
paper reports for Table I and Figures 7-15."""

from __future__ import annotations

import json

import pytest


@pytest.fixture(scope="module")
def exported(full_run):
    def data(experiment_id: str) -> dict:
        path = full_run / f"{experiment_id}.json"
        return json.loads(path.read_text())["data"]

    return data


def test_table1(exported):
    data = exported("table1")
    assert data["top5_set_match"]
    assert data["bottom5_set_match"]


def test_fig7a(exported):
    data = exported("fig7a")
    # Paper: resonant band ~2 MHz, max ~41 %p2p.
    assert 8e5 < data["peak_freq_hz"] < 6e6
    assert 30.0 <= data["peak_p2p"] <= 52.0


def test_fig7b(exported):
    data = exported("fig7b")
    freqs = [f for f, _ in data["resonances"]]
    assert any(1e6 < f < 5e6 for f in freqs)   # first droop band
    assert any(2e4 < f < 8e4 for f in freqs)   # board band
    assert data["no_peak_above_5mhz"]


def test_fig8(exported):
    data = exported("fig8")
    assert data["period_match"]
    assert data["p2p_volts"] > 0.05


def test_fig9(exported):
    data = exported("fig9")
    # Paper: ~61 %p2p peak, ~+20 point uplift, and synchronized
    # non-resonant stimulation beats unsynchronized resonant.
    assert 52.0 <= data["peak_sync_p2p"] <= 72.0
    assert data["mean_uplift"] > 5.0
    assert data["nonresonant_sync_beats_resonant_unsync"]


def test_fig10(exported):
    data = exported("fig10")
    assert data["one_step_max"] < data["aligned_max"]
    assert data["one_step_drop"] >= 3.0


def test_fig11a(exported):
    assert exported("fig11a")["noise_rises_with_delta_i"]


def test_fig11b(exported):
    effect = exported("fig11b")["distribution_effect"]
    assert effect is not None and abs(effect) < 10.0  # weak trend


def test_fig12(exported):
    data = exported("fig12")
    low, high = data["sync_band"]
    assert high <= 0.05 and high - low <= 0.03
    assert data["unsync_more_than_doubles"]


def test_fig13a(exported):
    data = exported("fig13a")
    assert data["min_correlation"] > 0.8
    assert data["row_clusters_detected"]


def test_fig13b(exported):
    data = exported("fig13b")
    assert data["same_row_stronger"]
    assert data["same_row_faster"]


def test_fig14(exported):
    data = exported("fig14")
    assert data["same_cluster_is_noisier"]
    assert 0.0 < data["penalty"] <= 15.0


def test_fig15(exported):
    data = exported("fig15")
    assert data["extremes_have_no_freedom"]
    assert data["mid_count_reduction"] > 0.0
