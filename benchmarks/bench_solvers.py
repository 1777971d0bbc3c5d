"""Bench A6: solver cross-validation on the reference chip.

The exact modal engine and the trapezoidal MNA engine must tell the
same story about the chip's step response — and the modal path is the
one fast enough to power the experiment suite.  The compiled chip
kernel, the only solver production runs use, must in turn reproduce
per-edge superposition (its oracle) within its pinned tolerance on the
same stimulus, and exported figures must not change at all when the
oracle solves them instead.
"""

import time

import numpy as np

from repro.machine.chip import reference_chip
from repro.machine.runner import ChipRunner, RunOptions, WAVEFORM_EXTRA_NODES
from repro.machine.workload import CurrentProgram, SyncSpec
from repro.pdn.kernels import KERNEL_TOLERANCE_V
from repro.pdn.state_space import ModalSystem, build_state_space
from repro.pdn.topology import build_chip_netlist
from repro.pdn.zec12 import reference_chip_parameters
from tests.oracles.mna import simulate_transient
from tests.oracles.superposition import assemble_voltage


def _oracle_solve(runner, batch, nodes):
    """``ChipRunner._solve`` by per-edge superposition: one block per
    distinct segment."""
    library = runner.chip.response_library
    return [
        [
            assemble_voltage(library, node, seg.trains, seg.times)
            for node in nodes
        ]
        for seg in batch.distinct_segments
    ]


def _oracle_solve_extra(runner, segment):
    """``ChipRunner._solve_extra`` by per-edge superposition."""
    library = runner.chip.response_library
    return [
        assemble_voltage(library, node, segment.trains, segment.times)
        for node in WAVEFORM_EXTRA_NODES
    ]


def _cross_validate():
    net = build_chip_netlist(reference_chip_parameters())
    t0 = time.perf_counter()
    modal = ModalSystem(build_state_space(net))
    t_modal_build = time.perf_counter() - t0

    t0 = time.perf_counter()
    mna = simulate_transient(
        net, {"vrm": 0.0, "load_core0": 1.0},
        t_end=2e-6, dt=0.5e-9, observe=["core0"],
    )
    t_mna = time.perf_counter() - t0

    t0 = time.perf_counter()
    exact = modal.step_response("load_core0", ["core0"], mna.times)[0]
    t_modal_eval = time.perf_counter() - t0

    scale = np.abs(exact).max()
    err = np.abs(mna.voltages["core0"][1:] - exact[1:]).max() / scale
    return err, t_modal_build, t_modal_eval, t_mna


def test_solver_agreement(benchmark):
    err, t_build, t_eval, t_mna = benchmark.pedantic(
        _cross_validate, rounds=1, iterations=1
    )
    print(f"\nmax relative disagreement: {err*100:.2f}%")
    print(f"modal build {t_build*1e3:.0f} ms, modal eval {t_eval*1e3:.1f} ms, "
          f"MNA transient {t_mna*1e3:.0f} ms")
    assert err < 0.05


def _didt(freq_hz):
    return CurrentProgram(
        name="bench-didt",
        i_low=14.0,
        i_high=32.0,
        freq_hz=freq_hz,
        rise_time=11e-9,
        sync=SyncSpec(offset=0.0, events_per_sync=1000),
    )


def _kernel_cross_validate():
    chip = reference_chip()
    runner = ChipRunner(chip)
    options = RunOptions(segments=4, base_samples=1536, collect_waveforms=True)
    batches = [
        runner.build_stimulus([_didt(freq)] * 6, options, f"bench{i}")
        for i, freq in enumerate((1.3e6, 2.6e6, 5.2e6, 10.4e6))
    ]

    t0 = time.perf_counter()
    reference = []
    for batch in batches:
        deviations = _oracle_solve(runner, batch, chip.core_nodes)
        extra = _oracle_solve_extra(runner, batch.segments[0])
        reference.append(deviations[0] + extra)
    t_reference = time.perf_counter() - t0

    t0 = time.perf_counter()
    chip.compiled_kernel
    t_compile = time.perf_counter() - t0
    t0 = time.perf_counter()
    kernel_runs = [runner.execute(batch) for batch in batches]
    t_kernel = time.perf_counter() - t0

    worst = 0.0
    for batch, rows, fast in zip(batches, reference, kernel_runs):
        nodes = chip.core_nodes + list(WAVEFORM_EXTRA_NODES)
        for node, deviation in zip(nodes, rows):
            v_ref = batch.dc_levels[node] + deviation
            worst = max(worst, np.abs(fast.waveforms[node][1] - v_ref).max())
    return worst, t_reference, t_compile, t_kernel


def test_batched_kernel_agreement(benchmark):
    """The compiled kernel vs the superposition oracle over the same
    stimulus: waveforms agree within the kernel's pinned tolerance."""
    worst, t_reference, t_compile, t_kernel = benchmark.pedantic(
        _kernel_cross_validate, rounds=1, iterations=1
    )
    print(f"\nworst |dv| kernel vs oracle: {worst:.3e} V "
          f"(budget {KERNEL_TOLERANCE_V:.0e} V)")
    print(f"oracle solve {t_reference*1e3:.0f} ms, kernel compile "
          f"{t_compile*1e3:.0f} ms, kernel runs {t_kernel*1e3:.0f} ms")
    assert worst < KERNEL_TOLERANCE_V


def test_exports_match_the_oracle(tmp_path, monkeypatch):
    """Quick Fig. 7a + Fig. 11a exported twice — solved by the kernel,
    then with the runner's solve phase swapped for the superposition
    oracle — are byte-identical.  Separate cache directories keep the
    second export from replaying the first."""
    from repro.cli import main
    from repro.engine import configure_cache

    figures = ("fig7a", "fig11a")

    def export(name):
        out = tmp_path / name
        argv = ["--quick", "--cache-dir", str(tmp_path / f"cache-{name}"),
                "run", *figures, "--output", str(out)]
        assert main(argv) == 0
        return out

    oracle_calls = []

    def oracle_solve(runner, batch, nodes):
        oracle_calls.append(batch.run_tag)
        return _oracle_solve(runner, batch, nodes)

    try:
        kernel = export("kernel")
        monkeypatch.setattr(ChipRunner, "_solve", oracle_solve)
        monkeypatch.setattr(ChipRunner, "_solve_extra", _oracle_solve_extra)
        oracle = export("oracle")
    finally:
        configure_cache(cache_dir=None)
    assert oracle_calls, "the oracle export replayed instead of solving"
    for figure in figures:
        for ext in ("json", "txt"):
            name = f"{figure}.{ext}"
            assert (oracle / name).read_bytes() == (
                kernel / name
            ).read_bytes(), name
