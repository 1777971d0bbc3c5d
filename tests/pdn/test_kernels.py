"""The compiled batched chip kernel: compilation, memoization,
equivalence against the reference superposition, the miss path's bits
against a reference copy of its arithmetic, and the byte-bounded solve
memo."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.errors import SolverError
from repro.machine.runner import ChipRunner, RunOptions
from repro.machine.workload import CurrentProgram
from repro.pdn import kernels
from repro.pdn.kernels import (
    _EXP_BUDGET,
    KERNEL_TOLERANCE_V,
    CompiledChipKernel,
    SampleGrid,
    _expand_ranges,
    clear_kernel_cache,
    compile_kernel,
    library_fingerprint,
)
from repro.pdn.superposition import EdgeTrain, edges_from_square_wave

from ..oracles.superposition import assemble_voltage


@pytest.fixture(scope="module")
def library(chip):
    return chip.response_library


@pytest.fixture(scope="module")
def kernel(library):
    return compile_kernel(library)


def square_train(port: str, delta: float = 18.0, freq: float = 2.6e6,
                 n: int = 40) -> EdgeTrain:
    half = 0.5 / freq
    times = np.arange(2 * n) * half
    deltas = np.where(np.arange(2 * n) % 2 == 0, delta, -delta)
    return EdgeTrain(port, times, deltas)


def isolated_edges(chip, kernel, start=0.0):
    """The runner's isolated-edge train (12 events 60 µs apart, longer
    than one slow-tier chunk) on a grid that samples it just before, on
    and just after every chunk boundary and closely after every edge."""
    train = edges_from_square_wave(
        chip.core_ports[0], delta_i=25.0, freq_hz=1.0 / 60e-6,
        n_events=12, start=start,
    )
    t_end = float(train.times[-1]) + 60e-6
    span = _EXP_BUDGET / kernel._slow_rate_max
    cuts = np.arange(1, int(t_end / span) + 1) * span
    times = np.unique(np.concatenate([
        np.linspace(0.0, t_end, 2048),
        (cuts[:, None] + np.array([-1e-9, 0.0, 1e-9])).ravel(),
        (train.times[:, None] + np.geomspace(1e-9, 50e-6, 24)).ravel(),
    ]))
    return train, times[times <= t_end]


def same_port_pair(port):
    """Two overlapping trains on one port."""
    a = square_train(port, delta=9.0)
    return a, EdgeTrain(port, a.times + 0.2e-6, -0.5 * a.deltas)


class TestCompilation:
    def test_memoized_per_fingerprint(self, library):
        assert compile_kernel(library) is compile_kernel(library)

    def test_clear_cache_recompiles(self, library):
        first = compile_kernel(library)
        clear_kernel_cache()
        second = compile_kernel(library)
        assert second is not first
        assert second.fingerprint == first.fingerprint

    def test_fingerprint_deterministic(self, library, kernel):
        assert library_fingerprint(library) == library_fingerprint(library)
        assert compile_kernel(library).fingerprint == library_fingerprint(
            library
        )

    def test_kernels_are_held_weakly(self, library):
        """Identical libraries share a live kernel; the memo alone keeps
        none alive."""
        kernel = compile_kernel(library, fingerprint="weakly-held")
        assert compile_kernel(library, fingerprint="weakly-held") is kernel
        ref = weakref.ref(kernel)
        del kernel
        gc.collect()
        assert ref() is None

    def test_chip_compiled_kernel_property(self, chip):
        assert chip.compiled_kernel is chip.compiled_kernel
        assert chip.compiled_kernel.fingerprint == library_fingerprint(
            chip.response_library
        )


class TestEquivalence:
    def test_matches_reference_superposition(self, chip, library, kernel):
        ports = chip.core_ports[:3]
        trains = [
            square_train(port, delta=10.0 + 4.0 * i)
            for i, port in enumerate(ports)
        ]
        times = np.linspace(0.0, 30e-6, 2048)
        nodes = chip.core_nodes
        fast = kernel.evaluate(trains, times, nodes=nodes)
        for row, node in enumerate(nodes):
            reference = assemble_voltage(library, node, trains, times)
            assert np.abs(fast[row] - reference).max() < KERNEL_TOLERANCE_V

    def test_tier_boundaries(self, chip, library, kernel):
        """Samples straddling the window/slow/dc tier edges agree with
        the reference path too."""
        port = chip.core_ports[0]
        train = EdgeTrain(port, np.array([0.0]), np.array([25.0]))
        window = float(kernel.window)
        times = np.concatenate([
            np.linspace(0.0, window * 0.999, 256),
            np.linspace(window * 1.001, window * 40.0, 256),
        ])
        node = chip.core_nodes[0]
        fast = kernel.evaluate([train], times, nodes=[node])[0]
        reference = assemble_voltage(library, node, [train], times)
        assert np.abs(fast - reference).max() < KERNEL_TOLERANCE_V

    @pytest.mark.parametrize("start", [0.0, 1e-3])
    def test_multi_chunk_isolated_edges(self, chip, library, kernel, start):
        """A segment longer than one slow-tier chunk — the runner's
        isolated-edge train, 12 events 60 µs apart — agrees with the
        reference, sampled just before, on and just after every chunk
        boundary; the shifted train puts its first edge 1 ms in."""
        train, times = isolated_edges(chip, kernel, start)
        tiers = kernel._build_tiers(times, train.times)
        assert tiers.slow_decay.shape[0] > 1       # several chunks
        nodes = chip.core_nodes
        fast = kernel.evaluate([train], times, nodes=nodes)
        for row, node in enumerate(nodes):
            reference = assemble_voltage(library, node, [train], times)
            assert np.abs(fast[row] - reference).max() < KERNEL_TOLERANCE_V

    def test_sample_grid_matches_raw_times(self, chip, kernel):
        train = square_train(chip.core_ports[1])
        times = np.linspace(0.0, 20e-6, 1024)
        raw = kernel.evaluate([train], times)
        gridded = kernel.evaluate([train], SampleGrid(times))
        assert np.array_equal(raw, gridded)

    def test_same_port_trains_merge(self, chip, kernel):
        """Two trains on one port solve identically to their sorted
        concatenation as a single train."""
        port = chip.core_ports[2]
        a, b = same_port_pair(port)
        merged_times = np.concatenate([a.times, b.times])
        merged_deltas = np.concatenate([a.deltas, b.deltas])
        order = np.argsort(merged_times, kind="stable")
        merged = EdgeTrain(port, merged_times[order], merged_deltas[order])
        times = np.linspace(0.0, 25e-6, 768)
        assert np.array_equal(
            kernel.evaluate([a, b], times),
            kernel.evaluate([merged], times),
        )


def reference_block(kernel, grid, et, deltas, p, rows):
    """One port's block by the miss path's earlier arithmetic, kept as
    the bit-for-bit reference: tier bounds by a per-sample
    ``searchsorted``, the DC outer product over every sample, the
    slow-tier product inline and the window tier through one gather
    from a packed (value | slope) table."""
    times = grid.times
    t_w = times - kernel.window
    t_h = times - kernel.horizon
    ks_w = np.searchsorted(et, t_w, side="left")
    ks_h = np.searchsorted(et, t_h, side="left")

    origins = kernel._chunk_origins(times)
    if origins is None:
        starts = np.zeros(1, dtype=np.intp)
        first = starts
        chunk_origins = np.zeros(1)
    else:
        starts = np.concatenate([[0], np.flatnonzero(np.diff(origins)) + 1])
        first = ks_h[starts]
        chunk_origins = origins[starts]
    sizes = np.diff(starts, append=times.size)
    counts = ks_w[starts + sizes - 1] - first
    slots = np.arange(int(counts.max()))
    valid = slots < counts[:, None]
    slow_edges = np.where(valid, first[:, None] + slots, 0)
    slow_decay = np.zeros(valid.shape + kernel._lanes.shape, dtype=complex)
    slow_decay[valid] = np.exp(np.outer(
        et[slow_edges[valid]] - np.repeat(chunk_origins, counts),
        -kernel._lanes,
    ))
    slow_w, slow_h = ks_w, ks_h
    if origins is not None:
        base = np.repeat(
            np.arange(starts.size) * (slots.size + 1) - first, sizes
        )
        slow_w, slow_h = base + ks_w, base + ks_h

    d_prefix = np.concatenate([[0.0], np.cumsum(deltas)])
    d_at_h = d_prefix[ks_h]
    block = np.outer(d_prefix[ks_w] - d_at_h, kernel._yss[p, rows])
    block += np.outer(d_at_h, kernel._dc[p, rows])

    n_chunks, n_slots, n_lanes = slow_decay.shape
    p_prefix = np.zeros((n_chunks, n_slots + 1, n_lanes), dtype=complex)
    np.cumsum(
        deltas[slow_edges][:, :, None] * slow_decay,
        axis=1, out=p_prefix[:, 1:],
    )
    p_prefix = p_prefix.reshape(-1, n_lanes)
    phases = kernel._phase_matrix(grid)
    mgw_p = np.ascontiguousarray(kernel._mgw[p][:, rows])
    # Inline on purpose: see the operand-order note in the kernel.
    block += np.real(
        (phases * (p_prefix[slow_w] - p_prefix[slow_h])) @ mgw_p
    )

    expanded = _expand_ranges(
        np.searchsorted(times, et, side="right"),
        np.searchsorted(t_w, et, side="right"),
    )
    if expanded is not None:
        win_sample, win_active, win_lengths = expanded
        x = times[win_sample] - np.repeat(et[win_active], win_lengths)
        step = kernel._window_step
        n_knots = kernel._n_knots
        win_idx = np.clip((x / step).astype(np.intp), 0, n_knots - 2)
        win_frac = x - win_idx * step
        wtab = np.empty((len(kernel.ports), n_knots, len(kernel.nodes)))
        for i, port in enumerate(kernel.ports):
            for j, node in enumerate(kernel.nodes):
                wtab[i, :, j] = kernel.library._ramp[(port, node)][:n_knots]
        wpack = np.concatenate(
            [wtab[:, :-1, :], np.diff(wtab, axis=1) / step], axis=2
        )
        r, n = rows.size, len(kernel.nodes)
        packed = wpack[p][:, np.concatenate([rows, rows + n])][win_idx]
        vals = packed[:, :r] + win_frac[:, None] * packed[:, r:]
        d_pair = np.repeat(deltas[win_active], win_lengths)
        weighted = d_pair[:, None] * vals
        for j in range(r):
            block[:, j] += np.bincount(
                win_sample, weights=weighted[:, j], minlength=times.size
            )
    return block


def _isolated_edges(chip):
    """Several slow-tier chunks, samples past the horizon."""
    kernel = compile_kernel(chip.response_library)
    train, times = isolated_edges(chip, kernel)
    return [train], SampleGrid(times), chip.core_nodes


def _dense_burst(chip):
    """30 edges 5 ns apart: 20 or more inside one sample's window."""
    times = np.arange(30) * 5e-9 + 1e-6
    deltas = np.where(np.arange(30) % 2 == 0, 12.0, -7.0)
    train = EdgeTrain(chip.core_ports[3], times, deltas)
    grid = np.unique(np.concatenate([
        np.linspace(0.0, 4e-6, 1024), np.linspace(1e-6, 1.3e-6, 601),
    ]))
    return [train], SampleGrid(grid), None


def _runner_probes(chip):
    """A segment as ``ChipRunner.build_stimulus`` builds it: six
    phase-randomized trains on a probe-provenance grid."""
    program = CurrentProgram(
        name="didt-bits", i_low=14.0, i_high=32.0, freq_hz=2.6e6,
        rise_time=11e-9,
    )
    batch = ChipRunner(chip).build_stimulus(
        [program] * chip.n_cores, RunOptions(segments=1), run_tag="bits",
    )
    segment = batch.segments[0]
    assert segment.samples.has_provenance
    assert segment.samples.anchors is not None
    return segment.trains, segment.samples, chip.core_nodes


#: Stimuli on both sides of numpy's 256 KiB temporary-reuse threshold
#: (4,096 samples × 4 slow lanes), which decides the operand order of
#: the slow-tier product.
MISS_PATH_STIMULI = {
    "below-reuse": lambda chip: (
        [square_train(chip.core_ports[0])],
        SampleGrid(np.linspace(0.0, 30e-6, 2048)), None,
    ),
    "above-reuse": lambda chip: (
        [square_train(port, delta=10.0 + 4.0 * i)
         for i, port in enumerate(chip.core_ports[:3])],
        SampleGrid(np.linspace(0.0, 30e-6, 6144)), chip.core_nodes,
    ),
    "past-horizon": lambda chip: (
        [square_train(chip.core_ports[1])],
        SampleGrid(np.linspace(0.0, 150e-6, 3000)), None,
    ),
    "isolated-edges": _isolated_edges,
    "dense-burst": _dense_burst,
    "runner-probes": _runner_probes,
    "merged-same-port": lambda chip: (
        list(same_port_pair(chip.core_ports[2])),
        SampleGrid(np.linspace(0.0, 25e-6, 768)), None,
    ),
}


class TestMissPathBits:
    """Every computed block equals :func:`reference_block` bit for bit
    (compared as ``int64``), so a rewrite of the miss path that moves
    any block's last bit fails here on any host."""

    @pytest.mark.parametrize("name", sorted(MISS_PATH_STIMULI))
    def test_blocks_match_reference(self, chip, library, monkeypatch, name):
        trains, grid, nodes = MISS_PATH_STIMULI[name](chip)
        kernel = CompiledChipKernel(library)
        computed = []
        original = kernel._port_contribution

        def spy(*args):
            computed.append((args, original(*args)))
            return computed[-1][1]

        monkeypatch.setattr(kernel, "_port_contribution", spy)
        kernel.evaluate(trains, grid, nodes=nodes)
        assert len(computed) == len({t.port for t in trains})
        for (seen, _, _, et, _, deltas, p, rows), block in computed:
            reference = reference_block(kernel, seen, et, deltas, p, rows)
            assert np.array_equal(
                block.view(np.int64), reference.T.view(np.int64)
            )

    def test_stimuli_cover_the_tier_cases(self, chip, library):
        """The stimuli above reach what the reference must pin: both
        sides of the reuse threshold, several chunks, samples past the
        horizon and 20 or more edges in one sample's window."""
        kernel = CompiledChipKernel(library)
        sizes, chunks, dc_tails, crowding = [], [], [], []
        for build in MISS_PATH_STIMULI.values():
            trains, grid, _ = build(chip)
            et = np.sort(np.concatenate([t.times for t in trains]))
            tiers = kernel._build_tiers(grid.times, et)
            sizes.append(grid.times.size)
            chunks.append(tiers.slow_decay.shape[0])
            dc_tails.append(grid.times.size - tiers.dc_start)
            crowding.append(np.bincount(tiers.win_sample).max())
        assert min(sizes) < 4096 <= max(sizes)
        assert max(chunks) > 1
        assert max(dc_tails) > 0
        assert max(crowding) >= 20


def rescaled(trains, scale):
    """The same edge instants at other amplitudes."""
    return [EdgeTrain(t.port, t.times, t.deltas * scale) for t in trains]


class TestReusedTierBits:
    """A block solved on a reused tier — whose window interpolation the
    memo keeps — equals :func:`reference_block` bit for bit too."""

    @pytest.mark.parametrize("name", sorted(MISS_PATH_STIMULI))
    def test_blocks_match_reference(self, chip, library, monkeypatch, name):
        trains, grid, nodes = MISS_PATH_STIMULI[name](chip)
        kernel = CompiledChipKernel(library)
        computed = []
        original = kernel._port_contribution

        def spy(*args):
            computed.append((args, original(*args)))
            return computed[-1][1]

        monkeypatch.setattr(kernel, "_port_contribution", spy)
        # Build the tier, then keep and reread the interpolated rows.
        for scale in (1.0, 1.5, 0.25):
            kernel.evaluate(rescaled(trains, scale), grid, nodes=nodes)
        assert len(computed) == 3 * len({t.port for t in trains})
        assert memo_sizes(kernel)["interp"]
        for (seen, _, _, et, _, deltas, p, rows), block in computed:
            reference = reference_block(kernel, seen, et, deltas, p, rows)
            assert np.array_equal(
                block.view(np.int64), reference.T.view(np.int64)
            )

    def test_first_use_keeps_no_interpolation(self, chip, library):
        """Only a tier an earlier solve built keeps its interpolated
        rows — not one the ports of a single stimulus share — and every
        kind's bytes are accounted."""
        kernel = CompiledChipKernel(library)
        times = np.linspace(0.0, 10e-6, 512)
        port = chip.core_ports[0]
        kernel.evaluate(
            [square_train(port), square_train(chip.core_ports[1])], times
        )
        assert set(memo_sizes(kernel)) == {"phase", "tier", "block"}
        kernel.evaluate([square_train(port, delta=7.0)], times)
        sizes = memo_sizes(kernel)
        tiers = next(
            value for key, (value, _) in kernel._memo._entries.items()
            if key[0] == "tier"
        )
        assert sizes["interp"] == [
            len(kernel.nodes) * tiers.win_sample.size * 8
        ]
        assert len(sizes["block"]) == 3
        assert kernel._memo.nbytes == sum(map(sum, sizes.values()))


class TestErrors:
    def test_unknown_port_raises(self, kernel):
        bogus = EdgeTrain("load_nowhere", np.array([0.0]), np.array([1.0]))
        with pytest.raises(SolverError, match="load_nowhere"):
            kernel.evaluate([bogus], np.linspace(0.0, 1e-6, 16))

    def test_unknown_node_raises(self, chip, kernel):
        train = square_train(chip.core_ports[0])
        with pytest.raises(SolverError):
            kernel.evaluate(
                [train], np.linspace(0.0, 1e-6, 16), nodes=["nowhere"]
            )


def memo_sizes(kernel) -> dict[str, list[int]]:
    """Held bytes of each memo entry, by kind, oldest first."""
    sizes: dict[str, list[int]] = {}
    for key, (_, nbytes) in kernel._memo._entries.items():
        sizes.setdefault(key[0], []).append(nbytes)
    return sizes


def count_solved_blocks(kernel, monkeypatch) -> list:
    """Spy on the miss path: one list item per block *kernel* builds."""
    solved = []
    original = kernel._port_contribution

    def spy(*args):
        solved.append(args)
        return original(*args)

    monkeypatch.setattr(kernel, "_port_contribution", spy)
    return solved


class TestContributionCache:
    def test_identical_stimuli_reuse_contributions(self, chip, library):
        kernel = compile_kernel(library, fingerprint="contrib-test-reuse")
        train = square_train(chip.core_ports[0])
        times = np.linspace(0.0, 10e-6, 512)
        first = kernel.evaluate([train], times)
        entries = len(kernel._memo)
        assert memo_sizes(kernel)["block"]
        second = kernel.evaluate([train], times)
        assert len(kernel._memo) == entries  # pure replay
        assert np.array_equal(first, second)

    def test_cache_stays_bounded(self, chip, library, monkeypatch):
        """After every evaluate over more distinct blocks than fit, the
        held bytes stay within the budget plus the newest entry."""
        budget = 64 * 1024
        monkeypatch.setattr(kernels, "_MEMO_BYTES", budget)
        kernel = CompiledChipKernel(library)
        times = np.linspace(0.0, 5e-6, 64)
        port = chip.core_ports[0]
        n_blocks = 2 * budget // (len(kernel.nodes) * times.size * 8)
        for i in range(n_blocks):
            train = EdgeTrain(
                port, np.array([0.0]), np.array([1.0 + 0.01 * i])
            )
            kernel.evaluate([train], times)
            memo = kernel._memo
            newest = next(reversed(memo._entries.values()))[1]
            assert memo.nbytes <= budget + newest
            assert memo.nbytes == sum(
                sum(sizes) for sizes in memo_sizes(kernel).values()
            )
        assert len(memo_sizes(kernel)["block"]) < n_blocks

    def test_least_recently_used_block_goes_first(
        self, chip, library, monkeypatch
    ):
        """A block read again between inserts survives; the older
        unread one is evicted and rebuilt on its next read.  The four
        trains share their edge instants, so the budget holds their
        shared phase matrix, tier and window interpolation plus three
        blocks."""
        times = np.linspace(0.0, 5e-6, 64)
        port = chip.core_ports[0]
        a, b, c, d = (
            EdgeTrain(port, np.array([0.0, 1e-6]), np.array([1.0 + i, -1.0]))
            for i in range(4)
        )
        probe = CompiledChipKernel(library)
        probe.evaluate([a], times)
        probe.evaluate([b], times)  # the reused tier keeps interpolation
        sizes = memo_sizes(probe)
        monkeypatch.setattr(
            kernels, "_MEMO_BYTES",
            sizes["phase"][0] + sizes["tier"][0] + sizes["interp"][0]
            + 3 * sizes["block"][0],
        )
        kernel = CompiledChipKernel(library)
        solved = count_solved_blocks(kernel, monkeypatch)
        for train in (a, b, c, a):
            kernel.evaluate([train], times)
        assert len(solved) == 3  # the second read of a is a hit
        kernel.evaluate([d], times)  # full: evicts b, not a
        for train in (a, c, d):
            kernel.evaluate([train], times)
        assert len(solved) == 4
        kernel.evaluate([b], times)
        assert len(solved) == 5

    def test_phases_and_tiers_share_the_budget(
        self, chip, library, monkeypatch
    ):
        """One budget covers every kind: with room for the phase matrix
        and the block only, the tier bookkeeping is evicted."""
        train = square_train(chip.core_ports[0])
        times = np.linspace(0.0, 10e-6, 512)
        probe = CompiledChipKernel(library)
        probe.evaluate([train], times)
        sizes = memo_sizes(probe)
        assert set(sizes) == {"phase", "tier", "block"}
        budget = sizes["phase"][0] + sizes["block"][0]
        monkeypatch.setattr(kernels, "_MEMO_BYTES", budget)
        kernel = CompiledChipKernel(library)
        kernel.evaluate([train], times)
        assert [key[0] for key in kernel._memo._entries] == ["phase", "block"]
        assert kernel._memo.nbytes == budget

    def test_entry_larger_than_the_budget_is_kept_alone(
        self, chip, library, monkeypatch
    ):
        train = square_train(chip.core_ports[0])
        times = np.linspace(0.0, 10e-6, 512)
        expected = CompiledChipKernel(library).evaluate([train], times)
        monkeypatch.setattr(kernels, "_MEMO_BYTES", 1)
        kernel = CompiledChipKernel(library)
        solved = count_solved_blocks(kernel, monkeypatch)
        got = kernel.evaluate([train], times)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert list(memo_sizes(kernel)) == ["block"]
        assert kernel._memo.nbytes == got.nbytes
        again = kernel.evaluate([train], times)
        assert len(solved) == 1  # the lone entry still answers
        assert np.array_equal(again.view(np.int64), got.view(np.int64))

    def test_batch_after_full_eviction_matches_a_fresh_kernel(
        self, chip, library, monkeypatch
    ):
        batch = [
            MISS_PATH_STIMULI[name](chip)[:2]
            for name in sorted(MISS_PATH_STIMULI)
        ]
        fresh = CompiledChipKernel(library).solve_batch(batch)
        monkeypatch.setattr(kernels, "_MEMO_BYTES", 1 << 20)
        kernel = CompiledChipKernel(library)
        first = kernel.solve_batch(batch)
        held = set(kernel._memo._entries)
        times = np.linspace(0.0, 30e-6, 2048)
        for i in range(16):
            kernel.evaluate(
                [square_train(chip.core_ports[0], delta=1.0 + i)], times
            )
        assert not held & set(kernel._memo._entries)
        again = kernel.solve_batch(batch)
        for solved in (first, again):
            for got, want in zip(solved, fresh):
                assert np.array_equal(
                    got.view(np.int64), want.view(np.int64)
                )
