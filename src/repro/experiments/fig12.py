"""Figure 12 — available Vmin margin vs. consecutive ΔI events and
stimulus frequency.

For each (consecutive-event count, stimulus frequency) pair a Vmin
experiment undervolts to first failure.  Findings to reproduce:

* synchronized cases sit in a narrow low-margin band regardless of the
  event count and frequency — a single synchronized ΔI event already
  generates most of the worst-case noise;
* disabling synchronization (∞ events, free-running phases) more than
  doubles the margin;
* the 1 Hz and very-high-frequency points show extra margin (bursts
  land on different sync intervals / the ΔI collapses);
* the worst-case *customer* line (80 % ΔI, no sync) has margin above
  all of these — the optimization headroom the paper's §VII targets.
"""

from __future__ import annotations

from ..analysis.margins import customer_margin_line
from ..analysis.report import render_table
from ..measure.vmin import vmin_experiment
from ..units import format_freq
from .common import ExperimentContext
from .registry import ExperimentResult, register

EVENT_COUNTS = [1, 2, 10, 1000]
FREQS = [1.0, 3.7e4, 2.6e6, 1e7, 1e8]


@register("fig12", "Available margin vs. consecutive ΔI events and frequency")
def run(context: ExperimentContext):
    generator = context.generator
    chip = context.chip

    def program(count, freq):
        if count == "inf":  # unsynchronized: ∞ events, free phases
            mark = generator.max_didt(freq_hz=freq, synchronize=False)
        else:
            mark = generator.max_didt(
                freq_hz=freq, synchronize=True, n_events=count
            )
        return mark.current_program()

    cases = [
        (count, freq) for freq in FREQS for count in [*EVENT_COUNTS, "inf"]
    ]
    *results, customer = yield (
        *(
            vmin_experiment(chip, [program(count, freq)] * chip.n_cores)
            for count, freq in cases
        ),
        customer_margin_line(
            chip,
            generator.max_didt(
                freq_hz=context.resonant_freq_hz, synchronize=False
            ).current_program(),
        ),
    )
    margins: dict[tuple[object, float], float] = {}
    rows = []
    for (count, freq), result in zip(cases, results):
        margins[(count, freq)] = result.margin_frac
        label = "inf/nosync" if count == "inf" else str(count)
        rows.append(
            [label, format_freq(freq), f"{result.margin_frac * 100:.1f}%"]
        )
    rows.append(["customer-80%", "worst-case", f"{customer.margin_frac * 100:.1f}%"])

    text = render_table(
        ["consecutive ΔI events", "stimulus", "available margin"], rows,
        title="Vmin margins (paper Fig. 12; margin = bias removed before first failure)",
    )

    sync_res = [
        margins[(c, f)] for c in EVENT_COUNTS for f in FREQS if 1e4 <= f <= 5e6
    ]
    unsync_res = [margins[("inf", f)] for f in FREQS if 1e4 <= f <= 5e6]
    data = {
        "margins": {f"{c}@{f:g}": m for (c, f), m in margins.items()},
        "sync_band": (min(sync_res), max(sync_res)),
        "unsync_band": (min(unsync_res), max(unsync_res)),
        "unsync_more_than_doubles": min(unsync_res) >= 2 * max(sync_res) - 1e-9,
        "margin_1hz": margins[(1000, 1.0)],
        "margin_100mhz": margins[(1000, 1e8)],
        "customer_margin": customer.margin_frac,
    }
    return ExperimentResult("fig12", "Vmin margin study", text, data)
