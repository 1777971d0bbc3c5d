"""Closed-loop stepping execution: one mapping run, advanced in windows.

:class:`SteppingSession` is the stateful counterpart of
:meth:`ChipRunner.execute <repro.machine.runner.ChipRunner.execute>`:
it builds the same :class:`~repro.machine.runner.StimulusBatch` once,
then advances through it in fixed-size sample windows.  After each
window it emits a :class:`WindowObservation` (per-core voltage
min/mean/max, utilization, droop events) and accepts an
:class:`Actuation` (a supply-bias change) that takes effect from the
*next* window on — the observe/actuate cycle a closed-loop controller
(:mod:`repro.control`) runs.

**Exact continuation invariant.**  Stepping is not an approximation:
each distinct segment is solved once, whole, through
:meth:`CompiledChipKernel.evaluate
<repro.pdn.kernels.CompiledChipKernel.evaluate>` (a synchronized run
lists one segment object for every observation window, so it solves
once), and its windows are slices of that block, so stitching the
emitted windows back together is
*bit-identical* to the monolithic kernel solve.  At the end,
:meth:`SteppingSession.result` hands the sticky state accumulated over
the windows to :meth:`ChipRunner.measure
<repro.machine.runner.ChipRunner.measure>`, the readout
:meth:`~repro.machine.runner.ChipRunner.execute` ends in too, and so
reproduces the monolithic run byte for byte (measurements, waveforms,
exports).  Both facts are pinned at tolerance **zero** by the control
test suite and the ``control-smoke`` CI job.

**Actuation model.**  The one knob is the supply voltage, as in the
paper's Vmin protocol and guard-banding.  The PDN is linear, so a
supply-bias change is a pure offset: observed absolute voltages shift
by ``(bias − 1)·Vnom`` while the deviation waveforms are untouched.
That is what makes a controller gain sweep cheap: :meth:`rewind`
restarts the loop on the same solved waveforms and the same window
readings (each window's per-core min/mean/max, extent and active
cores are read once), so a step applies only the offset, the
simultaneous-switching deepening and the sticky fold.

Fault injection: passing a :class:`~repro.faults.FaultPlan` routes each
segment's one solve through the plan with bounded retry, so the
determinism suite can prove the partition invariant holds under
injected crashes/exceptions too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError, ControlError, ExecutionError
from ..machine.chip import Chip
from ..machine.runner import ChipRunner, RunOptions, RunResult
from ..machine.system import ServiceElement, VOLTAGE_STEP
from ..machine.workload import CurrentProgram
from ..obs import Telemetry, get_telemetry
from .resilience import RetryPolicy, guarded_call

__all__ = ["Actuation", "WindowObservation", "SteppingSession"]

Mapping = Sequence[CurrentProgram | None]

#: Default droop-event threshold, as a fraction of nominal below which
#: an excursion counts as a droop event (3 % ≈ the static guard-band
#: headroom the paper's Figure 15 argues about).
DROOP_EVENT_FRAC = 0.03


@dataclass(frozen=True)
class Actuation:
    """One control decision, applied before the next window is stepped.

    ``bias_steps`` sets the supply bias in whole 0.5 % steps of nominal
    (negative = undervolt), through the same quantized
    :class:`~repro.machine.system.ServiceElement` surface the Vmin
    protocol drives; ``None`` leaves the bias alone.
    """

    bias_steps: int | None = None
    note: str = ""

    @property
    def is_noop(self) -> bool:
        return self.bias_steps is None


@dataclass(frozen=True)
class WindowObservation:
    """What a controller sees after one window of the transient solve.

    Voltages are **observed** absolute values: the bias offset
    ``(bias − 1)·Vnom`` is already applied.  ``worst_vmin`` includes the
    per-core simultaneous-switching deepening, i.e. it is the voltage
    the R-Unit's critical paths experience in this window.
    """

    index: int                      # global window number
    segment: int                    # observation window (phase draw)
    window: int                     # window number within the segment
    t_start: float                  # first sample instant (s)
    t_end: float                    # last sample instant (s)
    n_samples: int
    supply_bias: float              # multiplicative bias in effect
    v_min: tuple[float, ...]        # per-core observed minimum (V)
    v_mean: tuple[float, ...]       # per-core observed mean (V)
    v_max: tuple[float, ...]        # per-core observed maximum (V)
    worst_vmin: float               # min over cores incl. SSN deepening
    active_cores: tuple[int, ...]   # cores with activity in the window
    utilization: float              # len(active_cores) / n_cores
    droop_events: int               # below-threshold excursions, all cores
    coherent: tuple[float, ...]     # per-core coherent ΔI of the segment

    @property
    def n_active(self) -> int:
        return len(self.active_cores)

    @property
    def worst_core(self) -> int:
        """Core with the deepest observed minimum this window."""
        return int(np.argmin(self.v_min))


@dataclass(frozen=True)
class _WindowReading:
    """The bias-independent part of one window's observation: per-core
    nominal-supply min/mean/max, the window's extent and its active
    cores."""

    t_start: float
    t_end: float
    n_samples: int
    v_min: tuple[float, ...]
    v_mean: tuple[float, ...]
    v_max: tuple[float, ...]
    active_cores: tuple[int, ...]


class SteppingSession:
    """Windowed, actuated execution of one mapping run on one chip.

    Parameters
    ----------
    chip:
        The chip the run executes on.
    mapping:
        One :class:`~repro.machine.workload.CurrentProgram` (or
        ``None`` = idle) per core — same contract as
        :meth:`ChipRunner.run`.
    options:
        Run options (fresh defaults when omitted).
    run_tag:
        Differentiates the random phase draws, exactly as in the
        monolithic path — the same ``(mapping, options, run_tag)``
        triple produces the same stimulus on both paths.
    windows_per_segment:
        Windows each observation segment is divided into (clamped per
        segment so no window is empty).
    faults / retry:
        Optional :class:`~repro.faults.FaultPlan` injected into each
        segment's one solve, absorbed by *retry* (default
        :class:`~repro.engine.resilience.RetryPolicy`).
    droop_threshold_frac:
        Fraction of nominal below which an excursion counts as a droop
        event in window observations.
    """

    def __init__(
        self,
        chip: Chip,
        mapping: Mapping,
        options: RunOptions | None = None,
        *,
        run_tag: object = "control",
        windows_per_segment: int = 8,
        telemetry: Telemetry | None = None,
        faults=None,
        retry: RetryPolicy | None = None,
        droop_threshold_frac: float = DROOP_EVENT_FRAC,
    ):
        if windows_per_segment < 1:
            raise ConfigError(
                f"windows_per_segment must be >= 1 (got {windows_per_segment})"
            )
        self.chip = chip
        self.telemetry = telemetry or get_telemetry()
        self.runner = ChipRunner(chip)
        self.options = options or RunOptions()
        self.run_tag = run_tag
        self.windows_per_segment = int(windows_per_segment)
        self.faults = faults
        self.retry = retry or RetryPolicy()
        self.droop_threshold_v = (1.0 - droop_threshold_frac) * chip.vnom

        self.batch = self.runner.build_stimulus(mapping, self.options, run_tag)
        self._core_nodes = chip.core_nodes
        self._service = ServiceElement(chip)
        with self.telemetry.time("engine.kernel.compile_seconds"):
            self._kernel = chip.compiled_kernel

        # Window partition: near-equal sample slices per segment, never
        # empty (clamped when a segment has fewer samples than windows).
        self._bounds: list[np.ndarray] = []
        for segment in self.batch.segments:
            n = int(segment.times.size)
            w = max(1, min(self.windows_per_segment, n))
            self._bounds.append(np.linspace(0, n, w + 1).astype(int))
        self._schedule = [
            (s, w)
            for s in range(len(self._bounds))
            for w in range(len(self._bounds[s]) - 1)
        ]

        # Activity index of each distinct segment object: each core's
        # edge instants.
        port_to_core = {port: i for i, port in enumerate(chip.core_ports)}
        self._core_edges: dict[int, dict[int, np.ndarray]] = {}
        for segment in self.batch.segments:
            if id(segment) not in self._core_edges:
                self._core_edges[id(segment)] = {
                    port_to_core[train.port]: np.sort(train.times)
                    for train in segment.trains
                }

        # Each distinct segment's core-node deviation block, solved on
        # first use and keyed by the segment object's identity.
        self._blocks: dict[int, np.ndarray] = {}
        # Each (segment object, window)'s bias-independent readings,
        # read on first use and kept across rewinds.
        self._readings: dict[tuple[int, int], _WindowReading] = {}
        self._reset_loop_state()

    # -- loop state -----------------------------------------------------
    def _reset_loop_state(self) -> None:
        self._cursor = 0
        self._sticky = [
            {"v_min": np.inf, "v_max": -np.inf, "coherent": 0.0}
            for _ in range(self.chip.n_cores)
        ]
        self._service.reset_voltage()
        self._observations: list[WindowObservation] = []

    def rewind(self) -> None:
        """Restart the loop: cursor, sticky state and bias return to
        their initial values.  The solved segment blocks survive, so a
        replay (e.g. the next gain of a controller sweep) re-steps the
        already-solved waveforms at slice cost."""
        self._reset_loop_state()
        self.telemetry.increment("control.rewinds")

    # -- introspection --------------------------------------------------
    @property
    def n_windows(self) -> int:
        """Total windows across all segments."""
        return len(self._schedule)

    @property
    def position(self) -> int:
        """Windows already stepped."""
        return self._cursor

    @property
    def done(self) -> bool:
        return self._cursor >= len(self._schedule)

    @property
    def bias(self) -> float:
        """Supply bias currently in effect (1.0 = nominal)."""
        return self._service.bias

    @property
    def bias_steps(self) -> int:
        return self._service._bias_steps

    @property
    def observations(self) -> list[WindowObservation]:
        """Observations emitted since construction / the last rewind."""
        return list(self._observations)

    # -- solve plumbing -------------------------------------------------
    def _segment_rows(self, seg: int) -> np.ndarray:
        """Core-node deviation block of segment *seg*: solved once on
        first use of its segment object (through the fault plan, with
        retry, when one is set) and kept for every later window, every
        later segment listing the same object, and every rewind."""
        key = id(self.batch.segments[seg])
        block = self._blocks.get(key)
        if block is None:
            block = self._blocks[key] = self._solve_segment(seg)
        return block

    def _solve_segment(self, seg: int) -> np.ndarray:
        segment = self.batch.segments[seg]

        def solve(_item=None) -> np.ndarray:
            return self._kernel.evaluate(
                segment.trains, segment.samples, nodes=self._core_nodes
            )

        if self.faults is None:
            return solve()
        from ..faults.harness import _FaultyFn, fault_key

        token = f"control.solve:{self.run_tag}:{seg}"
        faulty = _FaultyFn(self.faults, solve, fault_key)
        outcome = guarded_call(
            faulty, (token,), self.retry, label=("control.solve", seg)
        )
        if outcome.failure is not None:
            raise ExecutionError(
                f"solve of segment {seg} failed after "
                f"{outcome.attempts} attempts",
                [outcome.failure],
            )
        if outcome.attempts > 1:
            self.telemetry.increment(
                "control.solve.retries", outcome.attempts - 1
            )
        return outcome.value

    def _window_volts(self, seg: int, win: int, core: int) -> np.ndarray:
        """Nominal-supply volts of *core* over window *win* of segment
        *seg*."""
        lo, hi = int(self._bounds[seg][win]), int(self._bounds[seg][win + 1])
        node = self._core_nodes[core]
        return self.batch.dc_levels[node] + self._segment_rows(seg)[core, lo:hi]

    def _read_window(self, seg: int, win: int) -> _WindowReading:
        """The bias-independent readings of window *win* of segment
        *seg*.  :meth:`step` reads each (segment object, window) once,
        so a synchronized run's segments share them and a rewind
        re-reads nothing."""
        lo, hi = int(self._bounds[seg][win]), int(self._bounds[seg][win + 1])
        times = self.batch.segments[seg].times
        t_start = float(times[lo])
        t_end = float(times[hi - 1])
        v_min: list[float] = []
        v_mean: list[float] = []
        v_max: list[float] = []
        for core in range(self.chip.n_cores):
            volts = self._window_volts(seg, win, core)
            v_min.append(float(volts.min()))
            v_max.append(float(volts.max()))
            v_mean.append(float(volts.mean()))

        active = []
        edges_by_core = self._core_edges[id(self.batch.segments[seg])]
        for core, program in enumerate(self.batch.mapping):
            if program is None:
                continue
            if program.is_steady:
                active.append(core)
                continue
            edges = edges_by_core.get(core)
            if edges is None:
                continue
            first = int(np.searchsorted(edges, t_start, side="left"))
            if first < edges.size and edges[first] <= t_end:
                active.append(core)

        return _WindowReading(
            t_start=t_start,
            t_end=t_end,
            n_samples=hi - lo,
            v_min=tuple(v_min),
            v_mean=tuple(v_mean),
            v_max=tuple(v_max),
            active_cores=tuple(active),
        )

    # -- the loop -------------------------------------------------------
    def step(self, actuation: Actuation | None = None) -> WindowObservation:
        """Apply *actuation* (if any), step the next window, fold it
        into the sticky measurement state and return its observation."""
        if self.done:
            raise ControlError(
                f"stepping past the end of the run "
                f"({self.n_windows} windows)"
            )
        if actuation is not None and not actuation.is_noop:
            self._service.set_bias_steps(int(actuation.bias_steps))
            self.telemetry.increment("control.actuations")

        seg, win = self._schedule[self._cursor]
        segment = self.batch.segments[seg]
        key = (id(segment), win)
        reading = self._readings.get(key)
        if reading is None:
            reading = self._readings[key] = self._read_window(seg, win)
        chip = self.chip
        bias = self._service.bias
        offset = (bias - 1.0) * chip.vnom

        v_min: list[float] = []
        v_mean: list[float] = []
        v_max: list[float] = []
        worst = np.inf
        droop_events = 0
        for core in range(chip.n_cores):
            # Sticky accumulation on nominal-supply volts: min-of-window
            # minima equals the monolithic segment minimum bit for bit,
            # which is what makes result() ≡ ChipRunner.execute().
            state = self._sticky[core]
            raw_min = reading.v_min[core]
            raw_max = reading.v_max[core]
            state["v_min"] = min(state["v_min"], raw_min)
            state["v_max"] = max(state["v_max"], raw_max)
            state["coherent"] = max(state["coherent"], segment.coherent[core])

            v_min.append(raw_min + offset)
            v_max.append(raw_max + offset)
            v_mean.append(reading.v_mean[core] + offset)
            ssn = (
                chip.skitters[core].config.ssn_gain * segment.coherent[core]
                if self.options.include_ssn
                else 0.0
            )
            worst = min(worst, raw_min + offset - ssn)
            # Rounded addition is monotonic, so the offset window's
            # minimum is raw_min + offset: no sample falls below the
            # threshold unless that one does.
            if raw_min + offset < self.droop_threshold_v:
                volts = self._window_volts(seg, win, core)
                observed = volts + offset if offset else volts
                below = observed < self.droop_threshold_v
                droop_events += int(below[0]) + int(
                    np.count_nonzero(below[1:] & ~below[:-1])
                )

        observation = WindowObservation(
            index=self._cursor,
            segment=seg,
            window=win,
            t_start=reading.t_start,
            t_end=reading.t_end,
            n_samples=reading.n_samples,
            supply_bias=bias,
            v_min=tuple(v_min),
            v_mean=tuple(v_mean),
            v_max=tuple(v_max),
            worst_vmin=float(worst),
            active_cores=reading.active_cores,
            utilization=len(reading.active_cores) / chip.n_cores,
            droop_events=droop_events,
            coherent=tuple(segment.coherent),
        )
        self._cursor += 1
        self._observations.append(observation)
        self.telemetry.increment("control.steps")
        return observation

    def run_to_completion(self) -> list[WindowObservation]:
        """Step every remaining window without actuation."""
        emitted = []
        while not self.done:
            emitted.append(self.step())
        return emitted

    # -- terminal measurement -------------------------------------------
    def result(self) -> RunResult:
        """The run's :class:`~repro.machine.runner.RunResult`: the
        sticky state accumulated over the emitted windows (remaining
        windows are stepped un-actuated first), read out by
        :meth:`ChipRunner.measure
        <repro.machine.runner.ChipRunner.measure>`.

        Bias never enters — like the monolithic path, measurements are
        relative to the nominal supply — so this is byte-identical to
        :meth:`ChipRunner.execute` of the same batch."""
        self.run_to_completion()
        return self.runner.measure(
            self.batch, self._sticky, self._segment_rows(0)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SteppingSession(chip={self.chip.chip_id!r}, "
            f"windows={self.position}/{self.n_windows}, "
            f"bias={self.bias:.3f})"
        )
