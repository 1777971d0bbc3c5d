"""Figure 7 — noise vs. stimulus frequency (no sync) and the impedance
profile.

(a) maximum per-core %p2p noise when one unsynchronized copy of the
    max dI/dt stressmark runs on each core, swept across stimulus
    frequencies: two resonant bands (low-tens-of-kHz and ~2 MHz).
(b) the PDN impedance profile Z(f) whose peaks the noise bands track,
    with no resonance above 5 MHz (deep-trench eDRAM shift).
"""

from __future__ import annotations

from ..analysis.report import render_series
from ..analysis.sensitivity import (
    default_frequency_grid,
    sweep_stimulus_frequency,
)
from ..pdn.impedance import find_resonances, impedance_profile
from ..units import format_freq
from .common import ExperimentContext
from .registry import ExperimentResult, register


@register("fig7a", "Noise vs. stimulus frequency (unsynchronized)")
def run_fig7a(context: ExperimentContext):
    freqs = default_frequency_grid(
        points_per_decade=context.freq_points_per_decade
    )
    points = yield sweep_stimulus_frequency(
        context.generator, context.chip, freqs, synchronize=False
    )
    series = {
        f"core{c} %p2p": [p.p2p_by_core[c] for p in points]
        for c in range(context.chip.n_cores)
    }
    text = render_series(
        "stimulus", [format_freq(p.freq_hz) for p in points], series,
        title="Max per-core noise, unsynchronized stressmarks (paper Fig. 7a)",
    )
    peak = max(points, key=lambda p: p.max_p2p)
    data = {
        "freqs_hz": [p.freq_hz for p in points],
        "max_by_core": {c: max(s) for c, s in enumerate(zip(*[p.p2p_by_core for p in points]))},
        "peak_freq_hz": peak.freq_hz,
        "peak_p2p": peak.max_p2p,
        "points": [(p.freq_hz, p.p2p_by_core) for p in points],
    }
    return ExperimentResult("fig7a", "Noise vs. stimulus frequency (unsync)", text, data)


@register("fig7b", "Post-silicon impedance profile Z(f)")
def run_fig7b(context: ExperimentContext) -> ExperimentResult:
    chip = context.chip
    profile = impedance_profile(
        chip.netlist, "load_core0", "core0",
        f_min=1e3, f_max=1e9, modal=chip.modal,
    )
    resonances = find_resonances(profile)
    sample_freqs = [1e3, 1e4, 3.7e4, 1e5, 5e5, 2.6e6, 5e6, 1e7, 1e8, 1e9]
    rows = {"Z (mOhm)": [profile.at(f) * 1e3 for f in sample_freqs]}
    text = render_series(
        "frequency", [format_freq(f) for f in sample_freqs], rows,
        title="PDN impedance profile (paper Fig. 7b)", fmt="{:.3f}",
    )
    text += "\nresonant bands: " + ", ".join(
        f"{format_freq(f)} ({z * 1e3:.2f} mOhm)" for f, z in resonances
    )
    above_5mhz = profile.ohms[profile.freqs_hz > 5e6]
    data = {
        "resonances": resonances,
        "z_at_resonance": resonances[0][1] if resonances else None,
        "no_peak_above_5mhz": bool(
            (above_5mhz.max() if above_5mhz.size else 0.0) < resonances[0][1]
        ),
    }
    return ExperimentResult("fig7b", "Impedance profile Z(f)", text, data)
