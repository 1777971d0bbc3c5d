"""Figure 8 — oscilloscope shot of core 0's voltage under the noisiest
stressmark (~2 MHz, synchronized): a 20 µs window and a single period.
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import render_table
from ..measure.oscilloscope import capture_trace
from ..units import format_freq, format_time
from .common import ExperimentContext
from .registry import ExperimentResult, register


@register("fig8", "Oscilloscope shot of voltage noise on core 0")
def run(context: ExperimentContext):
    mark = context.generator.max_didt(
        freq_hz=context.resonant_freq_hz, synchronize=True
    )
    program = mark.current_program()
    trace = yield capture_trace([program] * context.chip.n_cores, node="core0")
    period = 1.0 / program.freq_hz
    # The burst occupies the head of the capture; crop a settled window.
    start = 2 * period
    shot = trace.crop(start, min(start + 20e-6, trace.times[-1]))
    single = trace.crop(3 * period, 4 * period)

    # Periodicity check: autocorrelation of the windowed waveform should
    # peak at the stimulus period (the paper: "the repetition of the
    # sinusoidal form ... confirms the correctness of the stressmark").
    wave = shot.volts - shot.volts.mean()
    dt = shot.times[1] - shot.times[0]
    correlation = np.correlate(wave, wave, mode="full")[wave.size - 1 :]
    lag_min = int(0.5 * period / dt)
    lag_max = min(int(1.5 * period / dt), correlation.size - 1)
    best_lag = lag_min + int(np.argmax(correlation[lag_min : lag_max + 1]))
    measured_period = best_lag * dt

    rows = [
        ["capture window", format_time(shot.times[-1] - shot.times[0])],
        ["stimulus", format_freq(program.freq_hz)],
        ["waveform p2p", f"{shot.peak_to_peak * 1e3:.1f} mV"],
        ["single-period p2p", f"{single.peak_to_peak * 1e3:.1f} mV"],
        ["autocorrelation period", format_time(measured_period)],
        ["stimulus period", format_time(period)],
    ]
    text = render_table(
        ["quantity", "value"], rows,
        title="Voltage on core 0, max dI/dt stressmark at resonance (paper Fig. 8)",
    )
    data = {
        "p2p_volts": shot.peak_to_peak,
        "single_period_p2p_volts": single.peak_to_peak,
        "measured_period_s": measured_period,
        "stimulus_period_s": period,
        "period_match": abs(measured_period - period) < 0.1 * period,
        "times": shot.times,
        "volts": shot.volts,
    }
    return ExperimentResult("fig8", "Oscilloscope shot (20 µs + single period)", text, data)
