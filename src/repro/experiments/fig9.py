"""Figure 9 — noise vs. stimulus frequency with TOD synchronization.

Synchronization (every 4 ms, a thousand ΔI events per burst) raises the
noise across the whole spectrum — by roughly 20 %p2p points at the
resonant band — and synchronized non-resonant stimulation exceeds
unsynchronized resonant stimulation.
"""

from __future__ import annotations

from ..analysis.report import render_series
from ..analysis.sensitivity import (
    default_frequency_grid,
    sweep_stimulus_frequency,
)
from ..errors import ExecutionError
from ..units import format_freq
from .common import ExperimentContext
from .registry import ExperimentResult, register


@register("fig9", "Noise vs. stimulus frequency (synchronized every 4 ms)")
def run(context: ExperimentContext):
    freqs = default_frequency_grid(
        points_per_decade=context.freq_points_per_decade
    )
    # The unsynchronized reference is the Fig. 7a sweep — identical
    # runs, which the campaign planner dedups and the shared session
    # replays from its cache.
    synced, unsynced = yield (
        sweep_stimulus_frequency(
            context.generator, context.chip, freqs,
            synchronize=True, n_events=1000,
        ),
        sweep_stimulus_frequency(
            context.generator, context.chip, freqs, synchronize=False
        ),
    )
    series = {
        f"core{c} %p2p": [p.p2p_by_core[c] for p in synced]
        for c in range(context.chip.n_cores)
    }
    text = render_series(
        "stimulus", [format_freq(p.freq_hz) for p in synced], series,
        title="Max per-core noise, synchronized stressmarks (paper Fig. 9)",
    )
    peak_sync = max(synced, key=lambda p: p.max_p2p)
    peak_unsync = max(unsynced, key=lambda p: p.max_p2p)
    # Paper claim: sync in non-resonant bands beats unsync at resonance.
    mid_band = [
        p for p in synced if 1e5 <= p.freq_hz <= 1e6
    ]
    mid_band_max = max((p.max_p2p for p in mid_band), default=0.0)
    # Under collect mode the two sweeps can drop different points:
    # the uplift pairs readings by frequency, never by position.
    unsynced_at = {p.freq_hz: p for p in unsynced}
    uplift = [
        s.max_p2p - unsynced_at[s.freq_hz].max_p2p
        for s in synced
        if s.freq_hz in unsynced_at
    ]
    if not uplift:
        raise ExecutionError(
            "no frequency solved both synchronized and unsynchronized"
        )
    data = {
        "peak_sync_p2p": peak_sync.max_p2p,
        "peak_sync_freq": peak_sync.freq_hz,
        "peak_unsync_p2p": peak_unsync.max_p2p,
        "mean_uplift": sum(uplift) / len(uplift),
        "nonresonant_sync_beats_resonant_unsync": mid_band_max
        > peak_unsync.max_p2p,
        "points_sync": [(p.freq_hz, p.p2p_by_core) for p in synced],
        "points_unsync": [(p.freq_hz, p.p2p_by_core) for p in unsynced],
    }
    return ExperimentResult("fig9", "Noise vs. stimulus frequency (sync)", text, data)
