"""The compiled batched chip kernel: compilation, memoization,
equivalence against the reference superposition, and the contribution
cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.pdn.kernels import (
    _CONTRIB_CACHE_ENTRIES,
    _EXP_BUDGET,
    KERNEL_TOLERANCE_V,
    SampleGrid,
    clear_kernel_cache,
    compile_kernel,
    library_fingerprint,
)
from repro.pdn.superposition import (
    EdgeTrain,
    assemble_voltage,
    edges_from_square_wave,
)


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
        times = times[times <= t_end]
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
        a = square_train(port, delta=9.0)
        b = EdgeTrain(port, a.times + 0.2e-6, -0.5 * a.deltas)
        merged_times = np.concatenate([a.times, b.times])
        merged_deltas = np.concatenate([a.deltas, b.deltas])
        order = np.argsort(merged_times, kind="stable")
        merged = EdgeTrain(port, merged_times[order], merged_deltas[order])
        times = np.linspace(0.0, 25e-6, 768)
        assert np.array_equal(
            kernel.evaluate([a, b], times),
            kernel.evaluate([merged], times),
        )


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


class TestContributionCache:
    def test_identical_stimuli_reuse_contributions(self, chip, library):
        kernel = compile_kernel(library, fingerprint="contrib-test-reuse")
        train = square_train(chip.core_ports[0])
        times = np.linspace(0.0, 10e-6, 512)
        first = kernel.evaluate([train], times)
        entries = len(kernel._contrib_cache)
        assert entries >= 1
        second = kernel.evaluate([train], times)
        assert len(kernel._contrib_cache) == entries  # pure replay
        assert np.array_equal(first, second)

    def test_cache_stays_bounded(self, chip, library):
        kernel = compile_kernel(library, fingerprint="contrib-test-bound")
        times = np.linspace(0.0, 5e-6, 64)
        port = chip.core_ports[0]
        for i in range(_CONTRIB_CACHE_ENTRIES + 8):
            train = EdgeTrain(
                port, np.array([0.0]), np.array([1.0 + 0.01 * i])
            )
            kernel.evaluate([train], times)
        assert len(kernel._contrib_cache) <= _CONTRIB_CACHE_ENTRIES
