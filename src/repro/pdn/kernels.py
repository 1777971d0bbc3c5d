"""Precompiled per-chip solve kernels: the production PDN solver.

Per-edge superposition (``tests/oracles/superposition.py``, the oracle
the tests compare this kernel against) interpolates one
ramp-response table per *edge* — ``O(edges × samples)`` table lookups
per node.  Because the PDN is LTI and its spectrum has a
clean gap between a handful of slow board/package modes and the fast
on-chip modes, the same superposition can be factored once per chip into
a :class:`CompiledChipKernel` and then evaluated for any number of edge
trains at ``O(modes × (samples + edges))`` cost per port.

The kernel splits every (sample, edge) pair by elapsed time
``x = t − t_edge`` into three tiers:

* **window** (``0 < x ≤ W``): the fast modes are still alive, so the
  kernel linearly interpolates the *original* ramp table on its uniform
  fine prefix — arithmetically the same interpolation the reference
  performs, so this tier matches it to rounding.  ``W`` is chosen so the
  fastest retained-analytically mode has decayed by ``e^-16`` at the
  window edge.
* **slow** (``W < x ≤ horizon``): only the slow modes remain; their
  contribution is the closed-form ramp response
  ``y_ss + Re Σ_i m_i g_i e^{λ_i x}``, evaluated for *all* edges of a
  port at once through complex prefix sums over the edge train
  (``e^{λ(t − t_e)} = e^{λ t} · e^{−λ t_e}``), one small GEMM against
  the per-port modal coefficient matrix.  Conjugate eigenvalue pairs
  are folded into half-spectrum lanes (weight 2) so only
  ``imag(λ) ≥ 0`` modes are carried.
* **dc** (``x > horizon``): the reference clamps to the table's DC
  gain; the kernel applies exactly ``dc · Σ deltas`` via a real prefix
  sum — bit-identical to the reference tier.

Compilation validates its own equivalence: the analytic slow tier is
checked against the ramp table on a log grid spanning ``(W, horizon]``
and compilation fails with :class:`~repro.errors.SolverError`, naming
the check that failed, if the deviation exceeds the pinned budget — a
chip whose spectrum does not factor cleanly is refused loudly, never
solved approximately.

The prefix-sum factorization's exponents grow with the time since
its origin, at ``max|Re λ_slow|`` e-folds per second, so the kernel
re-bases it per *chunk* of the sample axis: chunks split the grid at
multiples of ``_EXP_BUDGET / max|Re λ_slow|`` (≈81 µs on the reference
chip), and a chunk starting at ``o_c`` evaluates
``e^{λ(t − t_e)} = e^{λ(t − o_c)} · e^{−λ(t_e − o_c)}`` with prefix
sums over only the edges its samples can see.  Every exponent then
stays within the budget however long the segment (sparse
isolated-edge trains reach ~0.75 ms).  A grid inside the first span is
one chunk at origin 0 — the plain factorization, phases built from the
grid's provenance.

Kernels are memoized per chip fingerprint (a content digest of the
response library they compile) via :func:`compile_kernel`, held
weakly: identical live chips share one kernel, and a kernel dies with
the last chip that holds it.  Within a kernel, evaluation results are
memoized too: one port's contribution to the observed nodes is a pure
function of (sample grid, merged edge train, port), so those blocks —
and the phase matrices and tier bookkeeping they are built from — live
in one least-recently-used memo keyed by content digest and bounded by
the bytes it holds (:data:`_MEMO_BYTES`).  A synchronized sweep — many
runs sharing grids and edge instants — pays the tiered evaluation once
per distinct block.  What depends on timing alone is kept apart from
the amplitudes: the stimulus build memoizes its sample grids and
phase starts in the same memo (:meth:`CompiledChipKernel.timing`), and
a tier an earlier solve built keeps its window interpolation, so a run
that repeats a timing with new edge deltas pays only for the deltas.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ..errors import SolverError
from .response import ResponseLibrary
from .superposition import EdgeTrain

__all__ = [
    "CompiledChipKernel",
    "SampleGrid",
    "compile_kernel",
    "library_fingerprint",
    "clear_kernel_cache",
    "KERNEL_TOLERANCE_V",
    "COMPILE_TOLERANCE_V",
]

#: Pinned equivalence budget (volts) between a kernel-evaluated waveform
#: and the reference superposition, for full-run stimuli (the experiment
#: suite's edge magnitudes, up to ~150 edges of ~25 A per segment).  The
#: measured deviation is O(1e-8) V per ampere of a single edge; this
#: ceiling leaves two orders of magnitude of headroom for accumulation.
KERNEL_TOLERANCE_V = 5e-6

#: Per-unit-edge budget the compile-time self-check enforces on the
#: analytic slow tier vs the ramp table (V per A, max over ports, nodes
#: and a log grid of elapsed times spanning the slow tier).
COMPILE_TOLERANCE_V = 1e-7

#: The fastest analytically-carried mode must have decayed by this many
#: e-folds at the window edge (e^-16 ≈ 1.1e-7: at the compile budget,
#: per ampere; the compile-time self-check measures the true residual).
#: Smaller windows mean fewer (sample, edge) pairs in the interpolation
#: tier, which is the kernel's dominant per-run cost.
_FAST_EFOLDS = 16.0

#: Exponent magnitude budget of the prefix factorization (|e^±x| stays
#: around 7e217, far from the ~1.8e308 double overflow, with headroom
#: for the modal coefficient magnitudes).  It also sets the slow tier's
#: chunk span, ``_EXP_BUDGET / max|Re λ_slow|``: within one chunk no
#: phase or decay factor leaves ``e^{±_EXP_BUDGET}``.
_EXP_BUDGET = 500.0

#: Byte budget of each kernel's solve memo: phase matrices, tier
#: bookkeeping and contribution blocks share it, least recently used
#: first out.  Reuse is short-range: over the 178 ``solve_batch`` calls
#: of a cold quick ``run all``, 424 of 495 block hits come within 4
#: calls of the block's last use and 4 come later than 32.  Measured on
#: that run (blocks / tiers / phase matrices rebuilt, peak RSS): 16 MiB
#: rebuilds 875 / 654 / 122 at 90 MB, 24 MiB 779 / 558 / 122 at 101 MB,
#: 32 MiB 773 / 557 / 121 at 110 MB; the old entry-count caps rebuilt
#: 773 / 557 / 116 at 164 MB.  24 MiB keeps block and tier rebuilds
#: within 1 % of that.
_MEMO_BYTES = 24 * 2**20


def _digest(array: np.ndarray) -> bytes:
    """Content digest for result-cache keys.  The builtin ``hash`` is
    process-seeded and only 64 bits; since these keys gate *numerical
    results*, use a real digest so collisions are out of the picture."""
    return hashlib.blake2b(array.tobytes(), digest_size=16).digest()


def _array_bytes(record: object) -> int:
    """Bytes of the distinct arrays among *record*'s attributes (one
    array held under two names counts once)."""
    arrays = {
        id(value): value.nbytes
        for value in vars(record).values()
        if isinstance(value, np.ndarray)
    }
    return sum(arrays.values())


class _SolveMemo:
    """A kernel's memo of solve intermediates, least recently used
    first out, bounded by the bytes of the arrays it holds.

    A hit moves the entry to the recent end.  An insert evicts from the
    old end until the held bytes fit the budget, but always keeps the
    newest entry, even one larger than the whole budget, so the solve
    that built it still reads it back.  Keys are content digests tagged
    by kind: the solve's ``"phase"``, ``"tier"``, ``"interp"`` and
    ``"block"``, and the stimulus timing's ``"grid"`` and ``"start"``
    (:meth:`CompiledChipKernel.timing`).  Not thread-safe: a kernel is
    used from one thread at a time."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple):
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: tuple, value: object, nbytes: int) -> None:
        self._entries[key] = (value, nbytes)
        self.nbytes += nbytes
        while self.nbytes > self.budget and len(self._entries) > 1:
            _, (_, freed) = self._entries.popitem(last=False)
            self.nbytes -= freed


@dataclass
class SampleGrid:
    """A segment's sample instants plus the provenance the kernel uses
    to build phase matrices multiplicatively instead of exponentially.

    ``times`` is always valid on its own (sorted, unique); the optional
    provenance fields record that ``times`` was assembled as
    ``unique(concat([linspace(0, t_end, n_base), anchors ⊕ offsets]))``
    so ``e^{λ t}`` can be built from one exponential per anchor/offset
    and repeated complex multiplies (``exp`` is ~50× the cost of a
    multiply) — a pure optimization, bit-equivalent up to rounding.
    """

    times: np.ndarray
    t_end: float | None = None
    n_base: int = 0
    anchors: np.ndarray | None = None      # per-edge probe anchors (s)
    offsets: np.ndarray | None = None      # shared probe offsets (s)
    probe_mask: np.ndarray | None = None   # keep-mask over anchors⊗offsets
    first_index: np.ndarray | None = None  # unique() gather into concat

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)

    @cached_property
    def times_key(self) -> bytes:
        """Content digest of ``times``, taken once per grid: a grid the
        stimulus build memoizes is solved by every run sharing its
        timing, so the solve does not re-hash its samples."""
        return _digest(self.times)

    @property
    def nbytes(self) -> int:
        """Bytes of the distinct arrays held."""
        return _array_bytes(self)

    @property
    def has_provenance(self) -> bool:
        return (
            self.first_index is not None
            and self.t_end is not None
            and self.n_base >= 2
        )


def library_fingerprint(library: ResponseLibrary) -> str:
    """Content digest of a response library: the grid, every ramp
    table, the DC gains and the rise time — everything the compiled
    kernel's behavior depends on."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(library.grid).tobytes())
    digest.update(repr(float(library.rise_time)).encode())
    for port in library.ports:
        for node in library.nodes:
            digest.update(f"{port}->{node}".encode())
            table = library._ramp[(port, node)]
            digest.update(np.ascontiguousarray(table).tobytes())
            digest.update(repr(library.dc(port, node)).encode())
    return digest.hexdigest()


#: Process-wide kernel memo, keyed by chip/library fingerprint and held
#: weakly: a chip holds its kernel (``Chip.compiled_kernel``), so an
#: evicted or discarded chip frees its kernel and the kernel's memo.
_KERNEL_CACHE: "weakref.WeakValueDictionary[str, CompiledChipKernel]" = (
    weakref.WeakValueDictionary()
)


def compile_kernel(
    library: ResponseLibrary, fingerprint: str | None = None
) -> "CompiledChipKernel":
    """Compile (or replay from the process memo) the kernel of one
    response library.  ``fingerprint`` defaults to a content digest of
    the library, so identical chips share one compiled kernel per
    process regardless of how many ``Chip`` instances exist."""
    key = fingerprint if fingerprint is not None else library_fingerprint(library)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        kernel = CompiledChipKernel(library, fingerprint=key)
        _KERNEL_CACHE[key] = kernel
    return kernel


def clear_kernel_cache() -> None:
    """Forget every memoized kernel, so the next compile builds a new
    one (tests); chips keep the kernels they hold."""
    _KERNEL_CACHE.clear()


@dataclass
class _TierIndex:
    """Port-independent bookkeeping of one (sample grid, edge instants)
    pair: which (sample, edge) pairs land in which tier, the slow
    tier's chunk-re-based decay factors laid out as padded
    (chunk, slot) rows, and the window tier's ragged ranges
    pre-expanded into flat knot/fraction arrays.  Every quantity here
    depends only on *times* — the edge deltas join at evaluation time —
    which is what makes it reusable across ports, segments and runs of
    a synchronized sweep."""

    run: np.ndarray                  # per sample: its run of equal bounds
    run_w: np.ndarray                # per run: first edge in (t−W, ·]
    run_h: np.ndarray                # per run: first edge in (t−H, ·]
    dc_start: int                    # first sample with an edge in (·, t−H]
    slow_edges: np.ndarray           # (chunks, slots): edge of each slot
    slow_decay: np.ndarray           # (chunks, slots, S): e^{−λ(t_e−o_c)}
    run_slow_w: np.ndarray           # per run: prefix row at run_w
    run_slow_h: np.ndarray           # per run: prefix row at run_h
    win_sample: np.ndarray | None    # window pairs: local sample row
    win_idx: np.ndarray | None       # window pairs: table knot index
    win_frac: np.ndarray | None      # window pairs: x − knot·step
    win_active: np.ndarray | None    # edges with a non-empty range
    win_lengths: np.ndarray | None   # range length of each active edge
    solve: int = 0                   # the solve_batch call that built it

    @property
    def nbytes(self) -> int:
        """Bytes of the distinct arrays held (on a one-chunk grid
        ``run_slow_w``/``run_slow_h`` are ``run_w``/``run_h``
        themselves)."""
        return _array_bytes(self)


def _expand_ranges(
    lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Flatten per-edge contiguous sample ranges ``[lo, hi)`` into a
    (sample index, active-edge mask, range length) triple — ragged
    ranges via repeat/arange, no Python loop over edges."""
    lengths = np.maximum(hi - lo, 0)
    total = int(lengths.sum())
    if total == 0:
        return None
    active = lengths > 0
    lengths = lengths[active]
    inner = np.arange(total) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    return np.repeat(lo[active], lengths) + inner, active, lengths


def _geometric_powers(ratio: np.ndarray, count: int) -> np.ndarray:
    """``ratio**k`` for ``k = 0..count-1`` (rows), by repeated doubling
    of already-computed blocks — ``O(count)`` complex multiplies and
    zero exponentials."""
    out = np.empty((count, ratio.size), dtype=complex)
    out[0] = 1.0
    filled = 1
    power = ratio.copy()  # == ratio**filled, maintained by squaring
    while filled < count:
        step = min(filled, count - filled)
        np.multiply(out[:step], power[None, :], out=out[filled:filled + step])
        filled += step
        power = power * power
    return out


class CompiledChipKernel:
    """A chip's netlist compiled into a batched ramp-superposition
    evaluator (see the module docstring for the math).

    Parameters
    ----------
    library:
        The chip's precomputed :class:`ResponseLibrary`; the kernel
        reuses its modal decomposition, ramp tables and DC gains, so
        the *table* remains the single source of reference truth.
    fingerprint:
        Identity of the compiled artifact (content digest of the
        library when omitted) — the memoization key.

    Raises
    ------
    SolverError
        If the spectrum does not admit the window/slow split (no usable
        gap, window beyond the uniform fine grid, unpaired complex
        modes) or the compile-time self-check against the ramp tables
        exceeds :data:`COMPILE_TOLERANCE_V`.
    """

    def __init__(
        self, library: ResponseLibrary, fingerprint: str | None = None
    ):
        self.library = library
        self.fingerprint = (
            fingerprint if fingerprint is not None
            else library_fingerprint(library)
        )
        self.ports = list(library.ports)
        self.nodes = list(library.nodes)
        self._port_index = {port: i for i, port in enumerate(self.ports)}
        self._node_index = {node: i for i, node in enumerate(self.nodes)}

        grid = library.grid
        self.horizon = float(grid[-1])
        self._split_spectrum(library.modal.eigenvalues)
        self._build_window_tables(grid)
        self._build_modal_coefficients(library)
        self._self_check()
        self._memo = _SolveMemo(_MEMO_BYTES)
        self._solves = 0  # solve_batch calls so far

    # -- compilation ----------------------------------------------------
    def _split_spectrum(self, eigenvalues: np.ndarray) -> None:
        """Partition the spectrum into analytically-carried slow modes
        and window-absorbed fast modes, and fold conjugate pairs into
        half-spectrum lanes."""
        rates = -np.real(eigenvalues)
        slow = rates * self.horizon <= _EXP_BUDGET
        if not np.any(slow):
            raise SolverError(
                "kernel compile: no eigenvalue is slow enough to carry "
                "analytically over the response horizon"
            )
        self._slow_rate_max = float(rates[slow].max())
        fast_rates = rates[~slow]
        if fast_rates.size:
            self.window = _FAST_EFOLDS / float(fast_rates.min())
        else:
            # Everything is carried analytically; keep a small window so
            # the in-ramp region (x < rise_time) still reads the table.
            self.window = 4.0 * self.library.rise_time
        if self.window >= self.horizon:
            raise SolverError(
                "kernel compile: fast/slow spectral gap leaves no room "
                f"for the analytic tier (window {self.window:.3g}s >= "
                f"horizon {self.horizon:.3g}s)"
            )
        if self.window < self.library.rise_time:
            raise SolverError(
                "kernel compile: window shorter than the edge rise time"
            )
        lam = eigenvalues[slow]
        keep = lam.imag >= 0.0
        weights = np.where(lam[keep].imag > 0.0, 2.0, 1.0)
        if int(weights.sum()) != int(slow.sum()):
            raise SolverError(
                "kernel compile: slow eigenvalues do not form conjugate "
                "pairs (defective or truncated spectrum)"
            )
        self._lanes = lam[keep]                # (S,) imag >= 0
        self._lane_weights = weights           # (S,) 1 for real, 2 paired
        self._slow_index = np.flatnonzero(slow)[keep]

    def _build_window_tables(self, grid: np.ndarray) -> None:
        """Snapshot the uniform fine prefix of every ramp table (the
        window tier interpolates these with direct index arithmetic)."""
        step = float(grid[1] - grid[0])
        n_hi = int(np.searchsorted(grid, self.window, side="right"))
        n_knots = n_hi + 1
        if n_knots >= grid.size:
            raise SolverError("kernel compile: window reaches past the grid")
        knots = grid[:n_knots]
        uniform = np.arange(n_knots) * step
        if np.abs(knots - uniform).max() > 1e-6 * step:
            raise SolverError(
                "kernel compile: window extends beyond the uniform fine "
                "region of the response grid"
            )
        self._window_step = step
        self._n_knots = n_knots
        # (ports, nodes, knots − 1) value and slope tables, contiguous
        # per (port, node) row: the window tier interpolates one observed
        # row at a time with two 1-D gathers.
        library = self.library
        wtab = np.empty((len(self.ports), len(self.nodes), n_knots))
        for p, port in enumerate(self.ports):
            for n, node in enumerate(self.nodes):
                wtab[p, n] = library._ramp[(port, node)][:n_knots]
        self._wval = np.ascontiguousarray(wtab[:, :, :-1])
        self._wslope = np.diff(wtab, axis=2) / step

    def _build_modal_coefficients(self, library: ResponseLibrary) -> None:
        """Per-port closed-form ramp coefficients restricted to the slow
        lanes: ``ramp(x) = y_ss + Re Σ_s w_s (m g)_s e^{λ_s x}`` for
        ``x ≥ rise_time`` (exact; the window tier owns smaller x)."""
        modal = library.modal
        sysm = modal.system
        tau = library.rise_time
        rows = sysm.output_rows(self.nodes)
        lam = self._lanes
        # Ramp smoothing factor of each lane: (1 - e^{-λτ}) / (λτ).
        gain = (1.0 - np.exp(-lam * tau)) / (lam * tau)
        n_ports, n_lanes, n_nodes = len(self.ports), lam.size, len(self.nodes)
        mgw = np.empty((n_ports, n_lanes, n_nodes), dtype=complex)
        yss = np.empty((n_ports, n_nodes))
        dc = np.empty((n_ports, n_nodes))
        for p, port in enumerate(self.ports):
            j = sysm.input_column(port)
            x_ss = np.linalg.solve(sysm.a, -sysm.b[:, j])
            coeff = modal._left @ (-x_ss)
            modes = (sysm.pv[rows] @ modal._right) * coeff[None, :]
            yss[p] = sysm.pv[rows] @ x_ss + sysm.qv[rows, j]
            mgw[p] = (
                modes[:, self._slow_index].T
                * (self._lane_weights * gain)[:, None]
            )
            for n, node in enumerate(self.nodes):
                dc[p, n] = library.dc(port, node)
        self._mgw = mgw
        self._mgw_flat = mgw.reshape(n_ports * n_lanes, n_nodes)
        self._yss = yss
        self._dc = dc

    def _self_check(self) -> None:
        """Compile-time equivalence proof: the analytic slow tier must
        match the ramp table across its whole domain, per unit edge."""
        probes = np.unique(np.concatenate([
            np.geomspace(self.window, self.horizon, 64),
            [self.window, self.horizon],
        ]))
        phases = np.exp(np.outer(probes, self._lanes))      # (X, S)
        worst = 0.0
        for p, port in enumerate(self.ports):
            analytic = self._yss[p][None, :] + np.real(
                phases @ self._mgw[p]
            )                                               # (X, nodes)
            for n, node in enumerate(self.nodes):
                reference = self.library.ramp(port, node, probes)
                worst = max(worst, float(
                    np.abs(analytic[:, n] - reference).max()
                ))
        self.compile_deviation_v = worst
        if worst > COMPILE_TOLERANCE_V:
            raise SolverError(
                f"kernel compile: analytic slow tier deviates "
                f"{worst:.3e} V/A from the ramp table (budget "
                f"{COMPILE_TOLERANCE_V:.0e}); this chip's spectrum "
                f"does not factor into a kernel"
            )

    # -- evaluation -----------------------------------------------------
    def _node_rows(self, nodes: list[str] | None) -> tuple[list[str], np.ndarray]:
        if nodes is None:
            nodes = self.nodes
        try:
            rows = np.array([self._node_index[n] for n in nodes], dtype=int)
        except KeyError as exc:
            raise SolverError(
                f"response for node {exc.args[0]!r} was not precomputed"
            ) from None
        return list(nodes), rows

    def _chunk_origins(self, times: np.ndarray) -> np.ndarray | None:
        """Each sample's slow-tier chunk origin ``o_c`` (the grid cut at
        multiples of ``_EXP_BUDGET / max|Re λ_slow|``), or ``None`` when
        the whole grid is one chunk at origin 0."""
        if (
            times[0] >= 0.0
            and self._slow_rate_max * float(times[-1]) <= _EXP_BUDGET
        ):
            return None
        span = _EXP_BUDGET / self._slow_rate_max
        return np.floor(times / span) * span

    def _phase_matrix(self, grid: SampleGrid) -> np.ndarray:
        """``e^{λ_s (t_m − o_m)}`` (samples × lanes) with ``o_m`` the
        sample's chunk origin; a one-chunk grid (origin 0) is built
        multiplicatively from its provenance when available."""
        lam = self._lanes
        times = grid.times
        origins = self._chunk_origins(times)
        if origins is not None:
            return np.exp((times - origins)[:, None] * lam[None, :])
        if not grid.has_provenance:
            return np.exp(times[:, None] * lam[None, :])
        base_step = grid.t_end / (grid.n_base - 1)
        blocks = [_geometric_powers(np.exp(lam * base_step), grid.n_base)]
        if grid.anchors is not None and grid.anchors.size:
            anchor_e = np.exp(grid.anchors[:, None] * lam[None, :])
            offset_e = np.exp(grid.offsets[:, None] * lam[None, :])
            probe_e = (
                anchor_e[:, None, :] * offset_e[None, :, :]
            ).reshape(-1, lam.size)
            blocks.append(probe_e[grid.probe_mask])
        return np.concatenate(blocks)[grid.first_index]

    def _phases_for(self, grid: SampleGrid, times_key: bytes) -> np.ndarray:
        """Content-memoized phase matrix: synchronized sweeps reuse a
        handful of distinct sample grids across thousands of (run,
        segment) pairs, so the build cost amortizes to nothing."""
        key = ("phase", times_key)
        phases = self._memo.get(key)
        if phases is None:
            phases = self._phase_matrix(grid)
            self._memo.put(key, phases, phases.nbytes)
        return phases

    def _tiers_for(
        self, times: np.ndarray, times_key: bytes, et: np.ndarray,
        et_key: bytes,
    ) -> tuple["_TierIndex", bool]:
        """Content-memoized tier bookkeeping for one (sample grid, edge
        train) pair: boundary indices, the slow tier's chunked decay
        factors and the expanded window-tier (sample, elapsed-time)
        pairs.  Port-independent — every port whose train shares the
        same edge instants reuses it.  Also whether an earlier
        :meth:`solve_batch` call built it: the timing then repeats
        across solves, not only across the ports of one stimulus."""
        key = ("tier", times_key, et_key)
        tiers = self._memo.get(key)
        if tiers is None:
            tiers = self._build_tiers(times, et)
            tiers.solve = self._solves
            self._memo.put(key, tiers, tiers.nbytes)
        return tiers, tiers.solve != self._solves

    def _window_interp(
        self, tiers: "_TierIndex", key: tuple, p: int, rows: np.ndarray
    ) -> np.ndarray:
        """The window tier's interpolated table values ``(rows × pairs)``
        of one port on a tier an earlier solve built, memoized under
        *key*.  They depend on the timing alone, so a block that shares
        the tier pays only their product with the edge deltas."""
        interp = self._memo.get(key)
        if interp is None:
            idx, frac = tiers.win_idx, tiers.win_frac
            interp = np.empty((rows.size, idx.size))
            for j, row in enumerate(rows):
                np.add(
                    self._wval[p, row].take(idx),
                    frac * self._wslope[p, row].take(idx),
                    out=interp[j],
                )
            interp.flags.writeable = False
            self._memo.put(key, interp, interp.nbytes)
        return interp

    def _build_tiers(self, times: np.ndarray, et: np.ndarray) -> _TierIndex:
        """Compute one :class:`_TierIndex` (see its docstring).  All
        three tiers share the *same* float predicates (edge < t−W marks
        slow-or-older, edge < t−H marks dc) so every (sample, edge)
        pair lands in exactly one tier even at the seams.

        The bounds are counted rather than searched: edge ``e`` is older
        than ``t_i − W`` exactly for the samples ``i ≥ w_after[e]``, so
        ``ks_w`` (the number of edges before ``t − W``) is the running
        count of ``w_after`` — a binary search of the few edges in the
        samples instead of every sample in the edges."""
        n = times.size
        t_w = times - self.window
        t_h = times - self.horizon
        w_after = np.searchsorted(t_w, et, side="right")
        ks_w = np.cumsum(np.bincount(w_after, minlength=n + 1)[:n])
        ks_h = np.cumsum(np.bincount(
            np.searchsorted(t_h, et, side="right"), minlength=n + 1
        )[:n])

        # Slow tier: one chunk per run of equal origins.  A chunk's
        # samples see edges ks_h[first sample] .. ks_w[last sample] − 1
        # (both indices are monotone in t); a one-chunk grid sums from
        # edge 0, the plain factorization.  Each chunk's edges fill one
        # zero-padded row of slots, so a single cumsum along the slots
        # builds every chunk's prefix sums.
        origins = self._chunk_origins(times)
        if origins is None:
            starts = np.zeros(1, dtype=np.intp)
            first = starts
            chunk_origins = np.zeros(1)
        else:
            starts = np.concatenate(
                [[0], np.flatnonzero(np.diff(origins)) + 1]
            )
            first = ks_h[starts]
            chunk_origins = origins[starts]
        sizes = np.diff(starts, append=times.size)
        counts = ks_w[starts + sizes - 1] - first
        slots = np.arange(int(counts.max()))
        valid = slots < counts[:, None]
        slow_edges = np.where(valid, first[:, None] + slots, 0)
        slow_decay = np.zeros(valid.shape + self._lanes.shape, dtype=complex)
        slow_decay[valid] = np.exp(np.outer(
            et[slow_edges[valid]] - np.repeat(chunk_origins, counts),
            -self._lanes,
        ))
        slow_w, slow_h = ks_w, ks_h
        if origins is not None:
            # Row of (chunk c, edge e) in the flattened prefix array.
            base = np.repeat(
                np.arange(starts.size) * (slots.size + 1) - first, sizes
            )
            slow_w, slow_h = base + ks_w, base + ks_h
        # Every bound is monotone in t, so the samples fall into runs
        # that share their bounds (about two per edge and chunk): a block
        # differences its prefix sums once per run and gathers the runs.
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = (slow_w[1:] != slow_w[:-1]) | (slow_h[1:] != slow_h[:-1])
        heads = np.flatnonzero(change)
        run_w, run_h = ks_w[heads], ks_h[heads]
        run_slow_w, run_slow_h = run_w, run_h
        if origins is not None:
            run_slow_w, run_slow_h = slow_w[heads], slow_h[heads]

        win_sample = win_idx = win_frac = win_active = win_lengths = None
        expanded = _expand_ranges(
            np.searchsorted(times, et, side="right"), w_after
        )
        if expanded is not None:
            win_sample, win_active, win_lengths = expanded
            x = times[win_sample] - np.repeat(et[win_active], win_lengths)
            step = self._window_step
            win_idx = np.clip(
                (x / step).astype(np.intp), 0, self._n_knots - 2
            )
            win_frac = x - win_idx * step
        return _TierIndex(
            run=np.cumsum(change) - 1, run_w=run_w, run_h=run_h,
            dc_start=int(np.searchsorted(ks_h, 0, side="right")),
            slow_edges=slow_edges, slow_decay=slow_decay,
            run_slow_w=run_slow_w, run_slow_h=run_slow_h,
            win_sample=win_sample, win_idx=win_idx, win_frac=win_frac,
            win_active=win_active, win_lengths=win_lengths,
        )

    def solve_batch(
        self,
        stimuli: list[tuple[list[EdgeTrain], SampleGrid | np.ndarray]],
        nodes: list[str] | None = None,
    ) -> list[np.ndarray]:
        """Evaluate N stimuli — ``(edge trains, sample grid)`` pairs —
        in one call.

        Because the PDN is LTI, one port's contribution to the observed
        nodes is a pure function of (sample grid, merged edge train,
        port).  The kernel content-addresses those contribution blocks:
        a synchronized sweep — many runs sharing grids and edge
        instants, differing only in which ports carry which programs —
        evaluates each distinct block once and every further run is a
        handful of vector adds.  Miss-path evaluation itself is tiered
        (see the module docstring) and shares per-(grid, train) phase
        and tier bookkeeping across ports.

        Returns one ``(len(nodes), n_samples)`` deviation array per
        stimulus (``nodes`` defaults to every precomputed node).
        """
        nodes, rows = self._node_rows(nodes)
        rows_key = rows.tobytes()
        self._solves += 1
        results = []
        for trains, grid in stimuli:
            if not isinstance(grid, SampleGrid):
                grid = SampleGrid(grid)
            times = grid.times
            seg = np.zeros((rows.size, times.size))
            results.append(seg)
            if times.size == 0:
                continue
            by_port: dict[str, list[EdgeTrain]] = {}
            for train in trains:
                if train.port not in self._port_index:
                    raise SolverError(
                        f"response for port {train.port!r} was not "
                        f"precomputed"
                    )
                by_port.setdefault(train.port, []).append(train)
            if not by_port:
                continue
            times_key = grid.times_key

            for port, port_trains in by_port.items():
                p = self._port_index[port]
                if len(port_trains) == 1:
                    et = port_trains[0].times
                    deltas = port_trains[0].deltas
                else:
                    et = np.concatenate([t.times for t in port_trains])
                    deltas = np.concatenate([t.deltas for t in port_trains])
                order = np.argsort(et, kind="stable")
                et = np.ascontiguousarray(et[order], dtype=float)
                deltas = np.ascontiguousarray(deltas[order], dtype=float)
                et_key = _digest(et)
                key = ("block", times_key, et_key, _digest(deltas), p,
                       rows_key)
                contrib = self._memo.get(key)
                if contrib is None:
                    contrib = self._port_contribution(
                        grid, times, times_key, et, et_key, deltas, p, rows
                    )
                    contrib.flags.writeable = False
                    self._memo.put(key, contrib, contrib.nbytes)
                seg += contrib
        return results

    def evaluate(
        self,
        trains: list[EdgeTrain],
        times: SampleGrid | np.ndarray,
        nodes: list[str] | None = None,
    ) -> np.ndarray:
        """Single-stimulus convenience wrapper over :meth:`solve_batch`:
        the ``(len(nodes), len(times))`` deviation waveforms."""
        return self.solve_batch([(trains, times)], nodes=nodes)[0]

    def timing(
        self, key: tuple, build: Callable[[], tuple[object, int]]
    ) -> tuple[object, bool]:
        """A stimulus timing artifact — a sample grid or a phase start
        — memoized under *key* (tagged by kind), and whether the memo
        already held it; ``build()`` returns the artifact and its bytes
        on a miss.  Timing shares the solve memo's budget and dies with
        the kernel, so an evicted chip frees it; a run that repeats
        another's timing with new amplitudes builds only the amplitudes.
        """
        value = self._memo.get(key)
        if value is not None:
            return value, True
        value, nbytes = build()
        self._memo.put(key, value, nbytes)
        return value, False

    # -- evaluation internals -------------------------------------------
    def _port_contribution(
        self,
        grid: SampleGrid,
        times: np.ndarray,
        times_key: bytes,
        et: np.ndarray,
        et_key: bytes,
        deltas: np.ndarray,
        p: int,
        rows: np.ndarray,
    ) -> np.ndarray:
        """One port's deviation block ``(rows × samples)`` for one
        merged edge train — the cacheable unit of the solve.  Each
        observed row is contiguous, so the rank-one tiers and the window
        tier's scatter-adds each run along one row."""
        tiers, reused = self._tiers_for(times, times_key, et, et_key)

        # DC and steady-state tiers: rank-one products of the Σδ
        # prefix differences against the per-port gain rows.  Before
        # dc_start no edge is past the horizon: d_at_h is +0.0 there
        # and the DC gains are negative, so the product would add -0.0,
        # which changes no element.  It covers only the suffix.
        d_prefix = np.concatenate([[0.0], np.cumsum(deltas)])
        d_at_h = d_prefix.take(tiers.run_h)
        contrib = self._yss[p, rows][:, None] * (
            d_prefix.take(tiers.run_w) - d_at_h
        ).take(tiers.run)
        h0 = tiers.dc_start
        if h0 < times.size:
            contrib[:, h0:] += (
                self._dc[p, rows][:, None] * d_at_h.take(tiers.run[h0:])
            )

        # Slow tier: complex prefix sums of δ e^{−λ(t_e − o_c)} per
        # chunk, differenced between each sample's tier bounds, times
        # the re-based phases, then one GEMM against the modal
        # coefficients.
        n_chunks, n_slots, n_lanes = tiers.slow_decay.shape
        p_prefix = np.zeros((n_chunks, n_slots + 1, n_lanes), dtype=complex)
        np.cumsum(
            deltas[tiers.slow_edges][:, :, None] * tiers.slow_decay,
            axis=1, out=p_prefix[:, 1:],
        )
        p_prefix = p_prefix.reshape(-1, n_lanes)
        phases = self._phases_for(grid, times_key)
        mgw_p = np.ascontiguousarray(self._mgw[p][:, rows])
        # Keep this product one unnamed inline expression: complex
        # multiply under FMA rounds differently with its operands
        # swapped, and numpy reuses an unnamed temporary of 256 KiB or
        # more in place, computing ``diff * phases`` for large grids and
        # ``phases * diff`` for small ones.  Naming the per-sample
        # differences, or writing the product in place, moves the
        # blocks' last bits.
        contrib += (
            (phases * (
                p_prefix.take(tiers.run_slow_w, axis=0)
                - p_prefix.take(tiers.run_slow_h, axis=0)
            ).take(tiers.run, axis=0))
            @ mgw_p
        ).real.T

        # Window tier: per observed row, gather the row's contiguous
        # value and slope tables at every (sample, edge) pair's knot,
        # interpolate, weight by the pair's edge delta and
        # scatter-accumulate onto the samples.  The interpolation is
        # timing only: on a tier an earlier solve built it is memoized,
        # and the block multiplies it by the deltas (the same product as
        # the in-place one below).  A tier's first solve keeps no copy,
        # even when several ports share it, so timing that never repeats
        # across solves costs no memory.
        if tiers.win_sample is None:
            return contrib
        d_pair = np.repeat(deltas[tiers.win_active], tiers.win_lengths)
        if reused:
            key = ("interp", times_key, et_key, p, rows.tobytes())
            interp = self._window_interp(tiers, key, p, rows)
            for j in range(rows.size):
                contrib[j] += np.bincount(
                    tiers.win_sample, weights=interp[j] * d_pair,
                    minlength=times.size,
                )
        else:
            idx, frac = tiers.win_idx, tiers.win_frac
            for j, row in enumerate(rows):
                vals = self._wval[p, row].take(idx)
                vals += frac * self._wslope[p, row].take(idx)
                vals *= d_pair
                contrib[j] += np.bincount(
                    tiers.win_sample, weights=vals, minlength=times.size
                )
        return contrib

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompiledChipKernel(ports={len(self.ports)}, "
            f"nodes={len(self.nodes)}, lanes={self._lanes.size}, "
            f"window={self.window:.3g}s, fp={self.fingerprint[:12]}…)"
        )
