"""Execute workload→core mappings on a chip and read the noise.

This is the simulation counterpart of the paper's measurement loop:
map one stressmark (or idle) to each core, let the chip run, and read
the per-core skitter macros in sticky mode.

A run is divided into *segments*, each standing for one observation
window somewhere in the long physical run:

* synchronized programs start each burst at their programmed TOD
  offset, identically in every segment (that is what the TOD sync
  buys);
* unsynchronized programs get an independent random phase per segment,
  standing for the unknown relative phases of free-running loops; the
  sticky skitter keeps the worst case across segments, exactly like
  sticky mode accumulating across a long run.

A run with no phase-randomized program therefore has one segment
stimulus, listed once per observation window: it is built, solved and
folded into the sticky state once (min, max and the coherent-ΔI max are
idempotent, so the reading is the same as folding every copy).

A segment's *timing* — its phase starts and its sample grid — does not
depend on the ΔI amplitudes, so it is memoized per chip in the compiled
kernel's solve memo (:meth:`~repro.pdn.kernels.CompiledChipKernel.timing`):
a run that repeats an earlier run's timing with new amplitudes (a ΔI
sweep at fixed stimulus timing, a served request with a new ``i_high``)
reuses the grids and phase draws and builds only its amplitudes.

Within a segment the per-core voltage waveforms are solved by the
chip's compiled kernel (:class:`~repro.pdn.kernels.CompiledChipKernel`,
pinned against per-edge superposition of ramp responses in the tests),
on a sample grid that is dense around ΔI edges and coarse elsewhere.
The segment also computes each core's *coherent ΔI* — the largest
weighted sum of rising edges within the chip's coherence window — which
feeds the skitter's simultaneous-switching term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ConfigError, MeasurementError
from ..obs.metrics import get_telemetry
from ..pdn.kernels import SampleGrid, _digest
from ..pdn.superposition import EdgeTrain, edges_from_square_wave
from ..rng import derive_seed
from .chip import Chip
from .workload import CurrentProgram, is_deterministic_mapping

__all__ = [
    "RunOptions",
    "CoreMeasurement",
    "RunResult",
    "SegmentStimulus",
    "StimulusBatch",
    "ChipRunner",
    "WAVEFORM_EXTRA_NODES",
]

#: Non-core nodes additionally recorded when waveforms are collected.
WAVEFORM_EXTRA_NODES = ("dom_n", "dom_s", "l3")

#: Elapsed times after every ΔI edge at which a segment's sample grid
#: probes the response: dense through the ramp, then log-spaced.
_PROBE_OFFSETS = np.concatenate([
    np.linspace(0.0, 30e-9, 13),
    np.geomspace(40e-9, 4e-6, 36),
])
_PROBE_OFFSETS.flags.writeable = False

#: Bytes a memoized phase start is charged in the solve memo: roughly
#: its key tuple, float and memo entry.  A cold campaign draws hundreds
#: of starts that never repeat; charged like this, they age out of the
#: memo like any other entry.
_START_BYTES = 128


@dataclass
class RunOptions:
    """Tunables of the run engine.

    The defaults balance fidelity and speed for the full experiment
    suite; tests use lighter settings.
    """

    #: Observation windows per run (phase draws for unsynced programs).
    segments: int = 8
    #: Maximum consecutive ΔI events simulated per burst.  The PDN
    #: settles within a few periods (Q ~ 2), so bursts of 100 or 1000
    #: events measure the same as this cap; bursts shorter than the cap
    #: are simulated exactly.
    events_cap: int = 12
    #: Extra time simulated after the last edge (s).
    tail: float = 3e-6
    #: Periods longer than this are simulated as isolated edges at this
    #: spacing — by then the network has fully settled, so the waveform
    #: is exact while the window stays bounded (the paper's 1 Hz case).
    isolated_edge_spacing: float = 60e-6
    #: Base (coarse) samples per segment window.
    base_samples: int = 3072
    #: Random seed for unsynchronized phase draws.
    seed: int = 0
    #: Record the per-node waveforms of the first segment.
    collect_waveforms: bool = False
    #: Apply the simultaneous-switching jitter term.
    include_ssn: bool = True
    #: Constant nest-unit loads (A): shifts DC levels only.
    nest_currents: dict[str, float] = field(
        default_factory=lambda: {"load_l3": 14.0, "load_mcu": 5.0, "load_gx": 5.0}
    )
    #: VRM remote-sense loop response time (s): bursts longer than this
    #: have their in-burst average current regulated out at the package
    #: sense point; shorter bursts ride on the pre-burst setpoint.
    vrm_response: float = 20e-6

    def __post_init__(self) -> None:
        if self.segments < 1:
            raise ConfigError(
                f"segments must be >= 1 (got {self.segments})"
            )
        if self.events_cap < 1:
            raise ConfigError(
                f"events_cap must be >= 1 (got {self.events_cap})"
            )
        if self.base_samples < 64:
            raise ConfigError(
                f"base_samples must be >= 64 for a meaningful p2p "
                f"(got {self.base_samples})"
            )
        if self.tail < 0:
            raise ConfigError(f"tail must be >= 0 (got {self.tail})")
        if self.isolated_edge_spacing <= 0:
            raise ConfigError(
                f"isolated_edge_spacing must be positive "
                f"(got {self.isolated_edge_spacing})"
            )
        if self.vrm_response <= 0:
            raise ConfigError(
                f"vrm_response must be positive (got {self.vrm_response})"
            )


@dataclass
class CoreMeasurement:
    """Per-core outcome of one run."""

    core: int
    p2p_pct: float
    v_min: float
    v_max: float
    coherent_delta_i: float

    @property
    def droop(self) -> float:
        """Worst droop below the observed maximum (V)."""
        return self.v_max - self.v_min


@dataclass
class RunResult:
    """Outcome of one mapping run."""

    measurements: list[CoreMeasurement]
    mapping: list[CurrentProgram | None]
    waveforms: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def p2p_by_core(self) -> list[float]:
        return [m.p2p_pct for m in self.measurements]

    @property
    def max_p2p(self) -> float:
        """Worst-case noise across cores — the paper's headline metric."""
        return max(m.p2p_pct for m in self.measurements)

    @property
    def worst_vmin(self) -> float:
        """Deepest instantaneous voltage seen by any core (V), with the
        coherent-switching deepening applied — the quantity the R-Unit's
        critical paths experience."""
        return min(m.v_min for m in self.measurements)

    def measurement(self, core: int) -> CoreMeasurement:
        for m in self.measurements:
            if m.core == core:
                return m
        raise MeasurementError(f"no measurement for core {core}")


@dataclass
class SegmentStimulus:
    """One observation window's worth of stimulus: the edge trains of
    every bursting core, the composite sample grid, and the per-core
    coherent-ΔI figures.  Pure data — the solver and its test oracles
    consume it."""

    trains: list[EdgeTrain]
    samples: SampleGrid
    coherent: list[float]

    @property
    def times(self) -> np.ndarray:
        return self.samples.times


@dataclass
class StimulusBatch:
    """Everything a mapping run needs *before* any waveform is solved:
    validated mapping, options, the VRM-regulated DC operating point and
    one :class:`SegmentStimulus` per observation window.

    Built by :meth:`ChipRunner.build_stimulus`; the compiled kernel
    solves it in production, and the superposition oracle solves the
    same batch in the tests, which makes the two comparable
    run-for-run.  ``segments`` has one entry per observation window;
    a synchronized run lists the same object in every entry.
    """

    mapping: list[CurrentProgram | None]
    options: RunOptions
    run_tag: object
    dc_levels: dict[str, float]
    segments: list[SegmentStimulus]

    @property
    def distinct_segments(self) -> list[SegmentStimulus]:
        """Each distinct segment object once, in window order: what a
        solve has to evaluate and a sticky readout has to fold."""
        return list({id(segment): segment for segment in self.segments}.values())


class ChipRunner:
    """Runs workload mappings on one :class:`~repro.machine.chip.Chip`.

    The run pipeline is split into three phases — *build stimulus*
    (edge trains, sample grids, coherent ΔI), *solve* (voltage
    deviation waveforms per node, through the chip's compiled kernel)
    and *measure* (sticky skitter accumulation).
    """

    def __init__(self, chip: Chip):
        self.chip = chip

    # ------------------------------------------------------------------
    def run(
        self,
        mapping: Sequence[CurrentProgram | None],
        options: RunOptions | None = None,
        run_tag: object = "run",
    ) -> RunResult:
        """Execute *mapping* (one entry per core, ``None`` = idle core).

        ``run_tag`` differentiates the random phase draws of repeated
        runs of the same mapping.
        """
        return self.execute(self.build_stimulus(mapping, options, run_tag))

    # -- phase 1: stimulus construction --------------------------------
    def build_stimulus(
        self,
        mapping: Sequence[CurrentProgram | None],
        options: RunOptions | None = None,
        run_tag: object = "run",
    ) -> StimulusBatch:
        """Construct the full stimulus of one run without solving it."""
        options = options or RunOptions()
        chip = self.chip
        if len(mapping) != chip.n_cores:
            raise ConfigError(
                f"mapping must cover all {chip.n_cores} cores"
            )

        idle_amps = chip.config.core.static_power_w / chip.vnom
        baseline = dict(options.nest_currents)
        for port, program in zip(chip.core_ports, mapping):
            baseline[port] = program.i_low if program is not None else idle_amps

        dc_levels = self._dc_levels(
            baseline, self._slow_average(mapping, baseline, options)
        )
        if is_deterministic_mapping(mapping):
            # Every burst starts at its programmed TOD offset in every
            # window: one stimulus stands for all of them.
            segments = [
                self._build_segment(mapping, options, run_tag, 0)
            ] * options.segments
        else:
            segments = [
                self._build_segment(mapping, options, run_tag, segment)
                for segment in range(options.segments)
            ]
        return StimulusBatch(
            mapping=list(mapping),
            options=options,
            run_tag=run_tag,
            dc_levels=dc_levels,
            segments=segments,
        )

    def _build_segment(
        self,
        mapping: Sequence[CurrentProgram | None],
        options: RunOptions,
        run_tag: object,
        segment: int,
    ) -> SegmentStimulus:
        trains = self._build_trains(mapping, options, run_tag, segment)
        return SegmentStimulus(
            trains=trains,
            samples=self._sample_times(trains, options),
            coherent=self._coherent_delta_i(mapping, trains, options),
        )

    # -- phase 2 + 3: solve and measure ---------------------------------
    def execute(self, batch: StimulusBatch) -> RunResult:
        """Solve a prepared :class:`StimulusBatch` and measure it."""
        core_nodes = self.chip.core_nodes
        deviations = self._solve(batch, core_nodes)
        # Sticky fold, all cores at once per segment: the same sums,
        # and min/max are exact.
        dc = np.array([batch.dc_levels[node] for node in core_nodes])
        v_min = np.full(dc.size, np.inf)
        v_max = np.full(dc.size, -np.inf)
        coherent = np.zeros(dc.size)
        for segment, rows in zip(batch.distinct_segments, deviations):
            volts = dc[:, None] + rows
            np.minimum(v_min, volts.min(axis=1), out=v_min)
            np.maximum(v_max, volts.max(axis=1), out=v_max)
            np.maximum(coherent, segment.coherent, out=coherent)
        sticky = [
            {"v_min": float(lo), "v_max": float(hi), "coherent": float(c)}
            for lo, hi, c in zip(v_min, v_max, coherent)
        ]
        return self.measure(batch, sticky, deviations[0])

    def measure(
        self,
        batch: StimulusBatch,
        sticky: list[dict[str, float]],
        first_rows: Sequence[np.ndarray],
    ) -> RunResult:
        """Read the skitters out of a run's accumulated sticky state.

        *sticky* holds, per core, the nominal-supply ``v_min`` /
        ``v_max`` over every solved sample and the largest coherent ΔI
        of any segment; *first_rows* are the core-node deviation rows
        of the first segment, recorded as waveforms when the options
        ask for them.  :meth:`execute` and the stepping engine
        (:class:`~repro.engine.stepping.SteppingSession`) both end
        here, so a stepped run measures exactly like a monolithic one.
        """
        chip = self.chip
        options = batch.options
        dc_levels = batch.dc_levels
        waveforms: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        if options.collect_waveforms:
            segment = batch.segments[0]
            times = segment.times
            for core, node in enumerate(chip.core_nodes):
                waveforms[node] = (
                    times.copy(), dc_levels[node] + first_rows[core]
                )
            extra = self._solve_extra(segment)
            for node, deviation in zip(WAVEFORM_EXTRA_NODES, extra):
                waveforms[node] = (times.copy(), dc_levels[node] + deviation)

        chip.reset_skitters()
        measurements: list[CoreMeasurement] = []
        for core in range(chip.n_cores):
            state = sticky[core]
            if not np.isfinite(state["v_min"]):  # pragma: no cover - defensive
                raise MeasurementError(f"core {core} produced no samples")
            coherent_amps = state["coherent"] if options.include_ssn else 0.0
            macro = chip.skitters[core]
            macro.observe(state["v_min"], state["v_max"], coherent_amps)
            reading = macro.read()
            ssn_droop = macro.config.ssn_gain * coherent_amps
            measurements.append(
                CoreMeasurement(
                    core=core,
                    p2p_pct=reading.p2p_pct,
                    v_min=state["v_min"] - ssn_droop,
                    v_max=state["v_max"],
                    coherent_delta_i=coherent_amps,
                )
            )
        return RunResult(
            measurements=measurements,
            mapping=list(batch.mapping),
            waveforms=waveforms,
        )

    def _solve(
        self, batch: StimulusBatch, nodes: list[str]
    ) -> list[list[np.ndarray]]:
        """Deviation waveforms for *nodes*, one block per distinct
        segment of the run, evaluated as one stacked kernel batch."""
        return self.chip.compiled_kernel.solve_batch(
            [(seg.trains, seg.samples) for seg in batch.distinct_segments],
            nodes=nodes,
        )

    def _solve_extra(self, segment: SegmentStimulus) -> list[np.ndarray]:
        """Waveform-collection extras (nest nodes, first segment only)."""
        return list(
            self.chip.compiled_kernel.evaluate(
                segment.trains,
                segment.samples,
                nodes=list(WAVEFORM_EXTRA_NODES),
            )
        )

    # ------------------------------------------------------------------
    def _slow_average(
        self,
        mapping: Sequence[CurrentProgram | None],
        baseline: dict[str, float],
        options: RunOptions,
    ) -> dict[str, float]:
        """Per-port current the VRM remote-sense loop regulates against.

        Bursts longer than the loop's response time are regulated
        in-burst (the loop sees the burst's duty-cycle average); bursts
        shorter than it ride on the pre-burst setpoint, so their
        sustained IR shift is *not* compensated.  Continuous
        (unsynchronized) stressmarks are always regulated.
        """
        average = dict(baseline)
        for port, program in zip(self.chip.core_ports, mapping):
            if program is None or program.is_steady:
                continue
            if program.sync is not None:
                burst_seconds = program.sync.events_per_sync / program.freq_hz
                if burst_seconds < options.vrm_response:
                    continue  # burst too short for the loop to react
            average[port] = program.i_low + program.duty * program.delta_i
        return average

    def _dc_levels(
        self,
        baseline: dict[str, float],
        slow_average: dict[str, float],
    ) -> dict[str, float]:
        """Absolute node voltages under the constant baseline loads,
        with the VRM remote-sense loop regulating the package node to
        nominal under the slow-average load."""
        system = self.chip.modal.system
        vrm_col = system.input_column("vrm")
        pkg_row = system.node_index["pkg"]

        u_avg = np.zeros(len(system.input_index))
        for name, amps in slow_average.items():
            u_avg[system.input_column(name)] = amps
        u_avg[vrm_col] = self.chip.vnom
        v_pkg = float(system.dc_voltages(u_avg)[pkg_row])
        setpoint = self.chip.vnom + (self.chip.vnom - v_pkg)

        u = np.zeros(len(system.input_index))
        for name, amps in baseline.items():
            u[system.input_column(name)] = amps
        u[vrm_col] = setpoint
        voltages = system.dc_voltages(u)
        return {node: float(voltages[row]) for node, row in system.node_index.items()}

    def _effective_period(self, program: CurrentProgram, options: RunOptions) -> float:
        period = 1.0 / program.freq_hz
        return min(period, options.isolated_edge_spacing)

    def _build_trains(
        self,
        mapping: Sequence[CurrentProgram | None],
        options: RunOptions,
        run_tag: object,
        segment: int,
    ) -> list[EdgeTrain]:
        """Edge trains of all bursting cores for one segment."""
        ports = self.chip.core_ports
        trains: list[EdgeTrain] = []
        for core, program in enumerate(mapping):
            if program is None or program.is_steady:
                continue
            period = self._effective_period(program, options)
            freq = 1.0 / period
            if not program.is_phase_randomized:
                start = program.sync.offset
                n_events = min(program.sync.events_per_sync, options.events_cap)
            else:
                start = self._phase_start(
                    derive_seed(
                        self.chip.config.seed, "phase", run_tag, segment,
                        core, options.seed,
                    ),
                    period,
                )
                n_events = options.events_cap
            trains.append(
                edges_from_square_wave(
                    ports[core],
                    delta_i=program.delta_i,
                    freq_hz=freq,
                    n_events=n_events,
                    start=start,
                    duty=program.duty,
                    rise_time=program.rise_time,
                )
            )
        return trains

    def _phase_start(self, seed: int, period: float) -> float:
        """A phase-randomized burst's start in one window: the first
        uniform draw of the stream seeded *seed*, memoized under that
        derived seed and the period.  Never under the raw run tag:
        ``1``, ``1.0`` and ``True`` are one dict key but derive three
        different seeds."""
        start, _ = self.chip.compiled_kernel.timing(
            ("start", seed, period),
            lambda: (
                float(np.random.default_rng(seed).uniform(0.0, period)),
                _START_BYTES,
            ),
        )
        return start

    def _sample_times(
        self, trains: list[EdgeTrain], options: RunOptions
    ) -> SampleGrid:
        """Dense-near-edges composite sampling grid for one segment.

        The grid records its own construction (base linspace, per-edge
        probe anchors/offsets, the ``unique`` gather) so the kernel
        can build phase matrices multiplicatively; the sample
        *values* are identical to simply uniquing the concatenation.
        It is a function of the edge instants, ``t_end`` and the base
        sample count alone, so it is memoized under those (the
        ``engine.timing.hits``/``misses`` counters) and shared, read
        only, by every segment with the same timing.
        """
        if trains:
            t_end = max(train.times.max() for train in trains) + options.tail
            edge_times = np.concatenate([train.times for train in trains])
        else:
            t_end = options.tail
            edge_times = np.empty(0)
        grid, hit = self.chip.compiled_kernel.timing(
            ("grid", _digest(edge_times), t_end, options.base_samples),
            lambda: _build_grid(edge_times, t_end, options.base_samples),
        )
        get_telemetry().increment(
            "engine.timing.hits" if hit else "engine.timing.misses"
        )
        return grid

    def _coherent_delta_i(
        self,
        mapping: Sequence[CurrentProgram | None],
        trains: list[EdgeTrain],
        options: RunOptions,
    ) -> list[float]:
        """Per-core maximum weighted rising-ΔI within the coherence
        window, over the whole segment.

        The sliding window is evaluated as dense (event × event)
        matrices — with at most ``n_cores × events_cap`` rising edges
        per segment the quadratic form is small, and it replaces the
        per-window Python scan that used to dominate stimulus
        construction.
        """
        chip = self.chip
        n_cores = chip.n_cores
        window = chip.config.ssn_window
        port_to_core = {port: i for i, port in enumerate(chip.core_ports)}
        t_parts: list[np.ndarray] = []
        c_parts: list[np.ndarray] = []
        a_parts: list[np.ndarray] = []
        for train in trains:
            core = port_to_core[train.port]
            rising = train.deltas > 0
            times = train.times[rising]
            # Simultaneous-switching jitter is a *transition* effect:
            # when a core repeats its events faster than the coherence
            # window, the chip sees quasi-steady ripple (already in the
            # PDN waveform), not discrete switching events — derate the
            # impulsive contribution by the period/window ratio.
            if times.size > 1:
                period = float(np.min(np.diff(np.sort(times))))
                impulsiveness = min(1.0, period / (2.0 * window))
            else:
                impulsiveness = 1.0
            t_parts.append(times.astype(float))
            c_parts.append(np.full(times.size, core, dtype=np.intp))
            a_parts.append(train.deltas[rising] * impulsiveness)
        if not t_parts:
            return [0.0] * n_cores
        t = np.concatenate(t_parts)
        if t.size == 0:
            return [0.0] * n_cores
        order = np.argsort(t, kind="stable")
        t, c, a = t[order], np.concatenate(c_parts)[order], np.concatenate(a_parts)[order]

        # One window per event (ending at it): membership is "no newer
        # than the window end, no older than the coherence span".
        idx = np.arange(t.size)
        in_win = (idx[None, :] <= idx[:, None]) & (
            t[None, :] >= (t[:, None] - window)
        )
        amps = np.where(in_win, a[None, :], 0.0)
        # At most one edge per source core counts within a window: the
        # delay line integrates a single traversal, it does not
        # accumulate a core's repeated events.  One grouped max over the
        # columns sorted by core.
        per_core = np.zeros((t.size, n_cores))
        counts = np.bincount(c, minlength=n_cores)
        bursting = np.flatnonzero(counts)
        per_core[:, bursting] = np.maximum.reduceat(
            amps[:, np.argsort(c, kind="stable")],
            (np.cumsum(counts) - counts)[bursting],
            axis=1,
        )
        totals = per_core @ chip.coupling_matrix.T   # (windows, observers)
        return [float(v) for v in totals.max(axis=0)]


def _build_grid(
    edge_times: np.ndarray, t_end: float, n_base: int
) -> tuple[SampleGrid, int]:
    """The sample grid of one segment timing (see
    :meth:`ChipRunner._sample_times`) and its bytes.  Its arrays are
    read-only: the memo shares the grid between runs."""
    base = np.linspace(0.0, t_end, n_base)
    if edge_times.size == 0:
        grid = SampleGrid(
            times=base,
            t_end=t_end,
            n_base=n_base,
            first_index=np.arange(base.size),
        )
    else:
        probes = (edge_times[:, None] + _PROBE_OFFSETS[None, :]).ravel()
        keep = (probes >= 0.0) & (probes <= t_end)
        times, first_index = np.unique(
            np.concatenate([base, probes[keep]]), return_index=True
        )
        grid = SampleGrid(
            times=times,
            t_end=t_end,
            n_base=n_base,
            anchors=edge_times,
            offsets=_PROBE_OFFSETS,
            probe_mask=keep,
            first_index=first_index,
        )
    for value in vars(grid).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return grid, grid.nbytes
