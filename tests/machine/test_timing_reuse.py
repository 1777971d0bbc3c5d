"""A segment's timing is built once per chip and reused across amplitudes.

A segment's phase starts and sample grid depend on its timing alone,
so the stimulus build memoizes them in the chip kernel's solve memo
(and the solve keeps a reused tier's window interpolation): a run that
repeats a timing with new ΔI amplitudes builds only the amplitudes.  It
must read exactly what a chip with empty memos reads — floats compared
on their ``int64`` views.  The vectorized sticky fold and coherent-ΔI
grouping must equal the per-core loops they replaced, kept here as
references.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.machine import runner as runner_module
from repro.machine.chip import Chip
from repro.machine.runner import ChipRunner, RunOptions
from repro.machine.workload import CurrentProgram, SyncSpec
from repro.obs import capture_telemetry
from repro.pdn import kernels
from repro.rng import stream

OPTIONS = RunOptions(segments=4, base_samples=1024)


def didt(i_high=30.0, sync=True, offset=0.0, freq=2.6e6):
    return CurrentProgram(
        name="didt-timing",
        i_low=14.0,
        i_high=i_high,
        freq_hz=freq,
        rise_time=11e-9,
        sync=SyncSpec(offset=offset) if sync else None,
    )


#: Mappings by stimulus kind, at a given ``i_high``.
MAPPINGS = {
    "synchronized": lambda i_high: (
        [didt(i_high, offset=i * 62.5e-9) for i in range(3)] + [None] * 3
    ),
    "phase-randomized": lambda i_high: (
        [didt(i_high, sync=False)] * 2 + [didt(i_high)] + [None] * 3
    ),
}


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bits (floats on their ``int64`` views)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == np.float64:
        a, b = a.view(np.int64), b.view(np.int64)
    return bool(np.array_equal(a, b))


def measurement_array(result) -> np.ndarray:
    return np.array([
        [m.p2p_pct, m.v_min, m.v_max, m.coherent_delta_i]
        for m in result.measurements
    ])


@pytest.fixture()
def fresh_chip(chip, monkeypatch):
    """The reference chip rebuilt with a kernel of its own, whose memo
    is empty."""
    chip.compiled_kernel  # compiled into the process-wide memo first
    monkeypatch.setattr(
        kernels, "_KERNEL_CACHE", weakref.WeakValueDictionary()
    )
    fresh = Chip(chip.config, chip.chip_id)
    assert fresh.compiled_kernel is not chip.compiled_kernel
    return fresh


class TestStimulusReuse:
    @pytest.mark.parametrize("kind", sorted(MAPPINGS))
    def test_warm_stimulus_equals_a_fresh_chips(self, chip, fresh_chip, kind):
        runner = ChipRunner(chip)
        first = runner.build_stimulus(MAPPINGS[kind](24.0), OPTIONS, kind)
        with capture_telemetry() as local:
            warm = runner.build_stimulus(MAPPINGS[kind](31.0), OPTIONS, kind)
        fresh_runner = ChipRunner(fresh_chip)
        cold = fresh_runner.build_stimulus(MAPPINGS[kind](31.0), OPTIONS, kind)

        segments = warm.distinct_segments
        assert local.counters["engine.timing.hits"] == len(segments)
        assert "engine.timing.misses" not in local.counters
        for earlier, built, fresh in zip(
            first.distinct_segments, segments, cold.distinct_segments
        ):
            assert built.samples is earlier.samples  # the timing was reused
            for name in ("times", "first_index", "probe_mask"):
                assert same_bits(
                    getattr(built.samples, name), getattr(fresh.samples, name)
                )
            assert [t.port for t in built.trains] == [
                t.port for t in fresh.trains
            ]
            for a, b in zip(built.trains, fresh.trains):
                assert same_bits(a.times, b.times)
                assert same_bits(a.deltas, b.deltas)
            assert same_bits(built.coherent, fresh.coherent)
        assert same_bits(
            measurement_array(runner.execute(warm)),
            measurement_array(fresh_runner.execute(cold)),
        )

    def test_tags_that_compare_equal_draw_their_own_streams(self, chip):
        """``1``, ``1.0`` and ``True`` are one dict key but three seeds:
        each tag's start is its own stream's first draw, on one chip."""
        runner = ChipRunner(chip)
        mapping = [didt(sync=False)] + [None] * 5
        period = runner._effective_period(mapping[0], OPTIONS)
        starts = []
        for tag in (1, 1.0, True, "1"):
            (train,) = runner._build_trains(mapping, OPTIONS, tag, 0)
            drawn = stream(
                chip.config.seed, "phase", tag, 0, 0, OPTIONS.seed
            ).uniform(0.0, period)
            assert same_bits(train.times[:1], [drawn]), tag
            starts.append(float(train.times[0]))
        assert len(set(starts)) == 4

    def test_timing_entries_share_the_byte_budget(self, fresh_chip):
        ChipRunner(fresh_chip).build_stimulus(
            MAPPINGS["phase-randomized"](30.0), OPTIONS, "bytes"
        )
        memo = fresh_chip.compiled_kernel._memo
        entries = memo._entries
        grids = [
            (value, nbytes) for key, (value, nbytes) in entries.items()
            if key[0] == "grid"
        ]
        starts = [
            nbytes for key, (_, nbytes) in entries.items()
            if key[0] == "start"
        ]
        assert len(grids) == OPTIONS.segments
        for grid, nbytes in grids:
            assert nbytes == grid.nbytes >= (
                grid.times.nbytes + grid.first_index.nbytes
            )
            assert not grid.times.flags.writeable  # shared between runs
        # Two phase-randomized cores per window.
        assert starts == [runner_module._START_BYTES] * 2 * OPTIONS.segments
        assert memo.nbytes == sum(nbytes for _, nbytes in entries.values())


def per_core_fold(chip, batch, deviations) -> list[dict]:
    """The sticky fold as a loop over cores, the reference the
    vectorized fold must equal."""
    sticky = [
        {"v_min": np.inf, "v_max": -np.inf, "coherent": 0.0}
        for _ in range(chip.n_cores)
    ]
    for segment, rows in zip(batch.distinct_segments, deviations):
        for core, node in enumerate(chip.core_nodes):
            volts = batch.dc_levels[node] + rows[core]
            state = sticky[core]
            state["v_min"] = min(state["v_min"], float(volts.min()))
            state["v_max"] = max(state["v_max"], float(volts.max()))
            state["coherent"] = max(state["coherent"], segment.coherent[core])
    return sticky


def per_core_coherent(chip, trains) -> list[float]:
    """The coherent ΔI with its per-core column max as a loop over
    cores, the reference the grouped max must equal."""
    n_cores = chip.n_cores
    window = chip.config.ssn_window
    port_to_core = {port: i for i, port in enumerate(chip.core_ports)}
    t_parts, c_parts, a_parts = [], [], []
    for train in trains:
        rising = train.deltas > 0
        times = train.times[rising]
        if times.size > 1:
            period = float(np.min(np.diff(np.sort(times))))
            impulsiveness = min(1.0, period / (2.0 * window))
        else:
            impulsiveness = 1.0
        t_parts.append(times.astype(float))
        c_parts.append(
            np.full(times.size, port_to_core[train.port], dtype=np.intp)
        )
        a_parts.append(train.deltas[rising] * impulsiveness)
    if not t_parts or not sum(part.size for part in t_parts):
        return [0.0] * n_cores
    t = np.concatenate(t_parts)
    order = np.argsort(t, kind="stable")
    t, c, a = t[order], np.concatenate(c_parts)[order], np.concatenate(a_parts)[order]
    idx = np.arange(t.size)
    in_win = (idx[None, :] <= idx[:, None]) & (
        t[None, :] >= (t[:, None] - window)
    )
    amps = np.where(in_win, a[None, :], 0.0)
    per_core = np.zeros((t.size, n_cores))
    for core in range(n_cores):
        cols = amps[:, c == core]
        if cols.size:
            per_core[:, core] = cols.max(axis=1)
    totals = per_core @ chip.coupling_matrix.T
    return [float(v) for v in totals.max(axis=0)]


def random_mapping(rng) -> list[CurrentProgram | None]:
    """Idle, synchronized and phase-randomized cores at mixed
    frequencies and amplitudes."""
    mapping = []
    for core in range(6):
        kind = int(rng.integers(3))
        if kind == 0:
            mapping.append(None)
            continue
        mapping.append(CurrentProgram(
            name=f"random-{core}",
            i_low=float(rng.uniform(5.0, 15.0)),
            i_high=float(rng.uniform(16.0, 40.0)),
            freq_hz=float(rng.choice([200.0, 0.5e6, 2.6e6, 9e7])),
            rise_time=11e-9,
            sync=(
                SyncSpec(offset=62.5e-9 * int(rng.integers(8)))
                if kind == 1 else None
            ),
        ))
    return mapping


class TestVectorizedLoops:
    @pytest.mark.parametrize("seed", range(6))
    def test_fold_and_coherent_equal_the_per_core_loops(self, chip, seed):
        rng = np.random.default_rng(seed)
        mapping = random_mapping(rng)
        runner = ChipRunner(chip)
        batch = runner.build_stimulus(mapping, OPTIONS, f"random-{seed}")
        for segment in batch.distinct_segments:
            assert same_bits(
                segment.coherent, per_core_coherent(chip, segment.trains)
            )
        deviations = runner._solve(batch, chip.core_nodes)
        expected = runner.measure(
            batch, per_core_fold(chip, batch, deviations), deviations[0]
        )
        assert same_bits(
            measurement_array(runner.execute(batch)),
            measurement_array(expected),
        )
