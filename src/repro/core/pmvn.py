"""PMVN: the parallel tile-based SOV integration (Algorithm 2).

The integration sweep works on four conceptual ``n x N`` matrices — the
replicated limits ``A`` and ``B``, the uniform variates ``R`` and the
transformed samples ``Y`` — partitioned into row blocks matching the factor's
tile rows and into column blocks of ``chain_block`` MC chains.  Per the
paper:

* step (b)/(d): a QMC kernel task per (row block, chain block) pair,
* step (c): GEMM tasks propagating ``L[j, r] @ Y[r]`` into the limit blocks
  of every remaining row block,

all submitted to the task runtime, which infers the dependencies from the
data handles and overlaps independent chain blocks / trailing updates across
worker threads.  With a TLR factor the GEMM tasks apply the low-rank tiles
(``U (V^T Y)``); everything else is unchanged, since ``A`` and ``B`` are not
admissible for compression (as the paper notes).

Batched evaluation
------------------
:func:`pmvn_integrate_batch` runs the sweep for *many* boxes against one
pre-computed factor in a single task-graph submission: every box contributes
its own chain blocks, and blocks from different boxes are interleaved in the
submission order so worker threads stay saturated across box boundaries.
Because each MC chain is independent, the per-chain probabilities are the
same values a loop of single-box sweeps would produce — batching changes the
schedule, not the estimator.  :func:`pmvn_integrate` is the single-box
special case.

Fused batch sweeps
------------------
The interleaved schedule still pays the per-tile Python and BLAS-dispatch
overhead once per (box, chunk) pair, which dominates when a serving
micro-batch holds many boxes with modest ``n_samples``.  The *fused* path
instead concatenates the wave's boxes along the chain dimension into one
virtual ``n x (boxes * n_samples)`` sweep and re-blocks it into cache-sized
tiles that may span box boundaries — legal because the QMC kernel is exact
for heterogeneous per-column limits (each chain only ever reads its own
column).  Per-box estimates are gathered back by slicing each box's columns
out of the fused probability segments in sample order, so the chain values —
and hence the estimates — are the *same numbers* the interleaved schedule
produces.  Bitwise equality additionally requires that every BLAS call see
each column at the same SIMD-lane alignment in both schedules; fusion
therefore keeps all tile widths and box offsets multiples of
:data:`_COLUMN_LANE`, and the ``"auto"`` mode only fuses workloads where
that alignment holds (``n_samples`` and the chain block both divisible by
the lane).  ``PMVNOptions.fusion`` selects ``"auto"`` (default), ``"fused"``
(force), or ``"interleaved"`` (the PR-6 schedule).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.factor import CholeskyFactor, factorize
from repro.core.kernel_backend import (
    KernelBackend,
    KernelWorkspace,
    get_backend,
    set_kernel_threads,
)
from repro.core.qmc_kernel import qmc_kernel_tile
from repro.mvn.result import MVNResult
from repro.runtime import AccessMode, DataHandle, Runtime
from repro.stats.qmc import qmc_samples
from repro.utils.timers import TimingRegistry, timed
from repro.utils.validation import check_limits, check_positive_int
from repro.utils.validation import ensure_1d

__all__ = [
    "PMVNOptions",
    "SweepWorkspace",
    "pmvn_integrate",
    "pmvn_integrate_batch",
    "pmvn_dense",
    "pmvn_tlr",
]

#: default chain-block width of the batched sweep (wider blocks amortize the
#: per-row Python overhead of the QMC kernel across more chains)
BATCH_CHAIN_BLOCK = 512

#: hard cap on the total workspace columns (chains) materialized at once by
#: the batched sweep.  The four ``n x cols`` work matrices plus the variates
#: cost ``~40 * n * cols`` bytes.
BATCH_WORKSPACE_COLS = 4_000_000

#: recognized values of ``PMVNOptions.fusion`` / ``SolverConfig.batch_fusion``
BATCH_FUSION_MODES = ("auto", "fused", "interleaved")

#: SIMD column-lane width the fused schedule aligns to.  BLAS kernels process
#: matrix columns in fixed-width lane groups with a different microkernel for
#: the tail; keeping every fused tile width and box offset a multiple of this
#: lane makes each column land in the same lane group as in the interleaved
#: schedule, so per-column GEMM/GEMV results are bitwise unchanged.
_COLUMN_LANE = 8


@dataclass
class PMVNOptions:
    """Knobs of the PMVN integration sweep.

    Attributes
    ----------
    n_samples : int
        QMC sample size ``N`` (the paper uses 100 / 1,000 / 10,000).
    chain_block : int, optional
        Number of MC chains per column block.  Every sweep, single-box or
        batched, defaults to ``max(tile_size, min(BATCH_CHAIN_BLOCK,
        n_samples))``: at least the factor's square tiles, wider when the
        sample size allows.  Results do not depend on this knob.
    qmc : str
        QMC sequence name (``"richtmyer"``, ``"halton"``, ``"sobol"``,
        ``"random"``).
    rng : seed or Generator
        Randomization source for the QMC shift.
    return_prefix : bool
        Also estimate the joint probability of every prefix of the
        dimensions (used by the confidence-region driver).
    max_workspace_cols : int, optional
        Batched sweep only: cap on the total chains materialized at once
        (defaults to :data:`BATCH_WORKSPACE_COLS` scaled by the dimension);
        additional boxes are swept in waves through the same runtime.
    backend : str, optional
        QMC kernel backend (``"numpy"``, ``"numba"``, ``"reference"``,
        ``"auto"``); ``None`` follows ``$REPRO_KERNEL_BACKEND`` and defaults
        to the fused bit-identical ``"numpy"`` backend.  See
        :mod:`repro.core.kernel_backend`.
    workspace : SweepWorkspace, optional
        Pooled work buffers reused across calls (a :class:`repro.solver.Model`
        holds one per session); a fresh pool is created when omitted.
    fusion : str
        Batched sweep schedule: ``"auto"`` (default) fuses the wave's boxes
        into cache-sized (boxes x samples) tiles whenever the column
        alignment keeps results bitwise identical to the interleaved
        schedule; ``"fused"`` forces fusion; ``"interleaved"`` forces the
        per-box chunk schedule.  See the module docs.
    kernel_threads : int, optional
        Thread count for chain-parallel kernel backends (``numba-parallel``);
        applied for the duration of the sweep via
        :func:`repro.core.kernel_backend.set_kernel_threads`.  ``None``
        defers to ``$REPRO_KERNEL_THREADS`` and then the backend default
        (all cores).  Single-threaded backends ignore it.
    """

    n_samples: int = 10_000
    chain_block: int | None = None
    qmc: str = "richtmyer"
    rng: object = None
    return_prefix: bool = False
    max_workspace_cols: int | None = None
    backend: str | None = None
    workspace: "SweepWorkspace | None" = field(default=None, repr=False)
    timings: TimingRegistry | None = field(default=None, repr=False)
    fusion: str = "auto"
    kernel_threads: int | None = None


def _gemm_limits_update(
    a_block: np.ndarray,
    b_block: np.ndarray,
    y_block: np.ndarray,
    factor: CholeskyFactor,
    j: int,
    r: int,
    workspace: "SweepWorkspace",
    skip_a: bool,
    clock: "_PhaseClock",
) -> None:
    """Task body for step (c): subtract ``L[j, r] @ Y[r]`` from both limit blocks.

    The product lands in a per-worker scratch block (``out=`` GEMM / low-rank
    apply) and is then axpy'd into the limit blocks in place, so the trailing
    updates allocate nothing.  ``skip_a`` marks row blocks whose lower limits
    are all ``-inf``: subtracting a finite update from ``-inf`` is an exact
    no-op, so the A-side traffic is skipped entirely (bit-identical).
    """
    start = time.perf_counter()
    rows, cols = a_block.shape
    base = workspace.acquire_gemm_scratch(rows, cols)
    try:
        update = base[:rows, :cols]
        factor.apply_offdiag_into(j, r, y_block, out=update)
        if not skip_a:
            a_block -= update
        b_block -= update
    finally:
        workspace.release_gemm_scratch(base)
    clock.add_gemm(time.perf_counter() - start)


def _resolve_means(means, n_boxes: int, n: int) -> list[np.ndarray]:
    """Canonicalize the ``means`` argument of the batched sweep.

    Accepts ``None`` (zero mean), a scalar or length-``n`` vector shared by
    all boxes, a length-``n_boxes`` sequence of per-box scalars, or per-box
    vectors as an ``(n_boxes, n)`` array / nested sequence.  A flat numeric
    sequence whose length is both ``n`` and ``n_boxes`` is ambiguous and
    rejected — disambiguate with a shape-``(n_boxes, n)`` array.
    """
    if means is None:
        return [np.zeros(n)] * n_boxes

    def _one(mean) -> np.ndarray:
        if np.isscalar(mean):
            return np.full(n, float(mean))
        mu = ensure_1d(mean, "mean")
        if mu.shape != (n,):
            raise ValueError(f"mean must be a scalar or have shape ({n},), got {mu.shape}")
        return mu

    if np.isscalar(means):
        return [_one(means)] * n_boxes
    try:
        arr = np.asarray(means, dtype=np.float64)
    except (TypeError, ValueError):
        arr = np.asarray(means, dtype=object)
    if arr.dtype != object and arr.ndim == 1:
        if arr.shape[0] == n == n_boxes:
            raise ValueError(
                f"means of length {n} is ambiguous (n == n_boxes): pass a shared mean "
                f"as a scalar or an (n_boxes, n) array of per-box means"
            )
        if arr.shape[0] == n:
            return [_one(arr)] * n_boxes
        if arr.shape[0] == n_boxes:
            return [_one(mean) for mean in arr]
        raise ValueError(
            f"means must be a scalar, a shared ({n},) vector, {n_boxes} per-box "
            f"scalars, or an ({n_boxes}, {n}) array; got shape {arr.shape}"
        )
    if arr.dtype != object and arr.ndim == 2:
        if arr.shape != (n_boxes, n):
            raise ValueError(f"per-box means must have shape ({n_boxes}, {n}), got {arr.shape}")
        return [np.ascontiguousarray(arr[i]) for i in range(n_boxes)]
    seq = list(means)
    if len(seq) != n_boxes:
        raise ValueError(f"means must provide one entry per box ({n_boxes}), got {len(seq)}")
    return [_one(mean) for mean in seq]


def pmvn_integrate_batch(
    boxes,
    factor: CholeskyFactor,
    options: PMVNOptions | None = None,
    runtime: Runtime | None = None,
    means=None,
) -> list[MVNResult]:
    """Estimate ``P(a_i <= X <= b_i)`` for many boxes sharing one factor.

    This is the batched fast path behind
    :func:`repro.batch.mvn_probability_batch` and the confidence-region
    driver: the covariance is factorized *once* (by the caller), and the
    PMVN sweeps of all boxes run through a single task-graph submission with
    chain blocks from different boxes interleaved.

    Each box draws its own QMC variates from ``options.rng`` in box order,
    so the per-chain probabilities — and hence the estimates — match a loop
    of :func:`pmvn_integrate` calls with the same seed.

    Parameters
    ----------
    boxes : sequence of (a, b) pairs
        Integration limits per box, each a pair of length-``factor.n``
        vectors (``+/- inf`` allowed).
    factor : CholeskyFactor
        Dense-tile or TLR factor of the covariance (see
        :func:`repro.core.factor.factorize`).
    options : PMVNOptions
        Sample size, chain block, QMC sequence, prefix output.
    runtime : Runtime, optional
        Task runtime shared by all boxes; defaults to serial execution.
    means : optional
        Mean vector(s), absorbed into the limits; see the batched sweep
        docs (scalar / ``(n,)`` shared, or per-box sequence / 2-D array).

    Returns
    -------
    list of MVNResult
        One result per box, in input order.
    """
    options = options or PMVNOptions()
    rt = Runtime.ensure(runtime)
    n = factor.n
    boxes = list(boxes)
    n_boxes = len(boxes)
    if n_boxes == 0:
        return []
    mus = _resolve_means(means, n_boxes, n)
    limits: list[tuple[np.ndarray, np.ndarray]] = []
    for idx, box in enumerate(boxes):
        try:
            a_raw, b_raw = box
        except (TypeError, ValueError):
            raise ValueError(f"box {idx} must be an (a, b) pair of limit vectors") from None
        a_vec, b_vec = check_limits(a_raw, b_raw, n)
        limits.append((a_vec - mus[idx], b_vec - mus[idx]))

    n_samples = check_positive_int(options.n_samples, "n_samples")
    if options.chain_block is not None:
        chain_block = options.chain_block
    else:
        chain_block = max(factor.tile_size, min(BATCH_CHAIN_BLOCK, n_samples))
    chain_block = check_positive_int(min(chain_block, n_samples), "chain_block")
    timings = options.timings

    # Memory governor: sweep ``boxes_per_wave`` boxes concurrently through the
    # runtime, just enough chain blocks in flight to keep the workers
    # saturated.  The workspace buffers are pooled and rewritten in place
    # across waves, so the working set stays wave-sized (close to a single-box
    # sweep) no matter how many boxes are queued — crucial because touching
    # fresh pages is far slower than recycling warm ones.
    chunks_per_box = -(-n_samples // chain_block)
    target_blocks = max(4, 2 * rt.n_workers)
    boxes_per_wave = max(1, -(-target_blocks // chunks_per_box))
    max_cols = options.max_workspace_cols or max(n_samples, BATCH_WORKSPACE_COLS // max(n, 1))
    boxes_per_wave = min(boxes_per_wave, max(1, int(max_cols) // n_samples), n_boxes)

    fused = _resolve_fusion(options, n_boxes, n_samples, chain_block)

    pooled = options.workspace
    if pooled is not None and pooled.checkout_wave_buffers():
        workspace, claimed = pooled, True
    else:
        # no pool given, or another sweep holds the pooled wave buffers
        # (concurrent queries on one Model): run on a transient workspace
        workspace, claimed = SweepWorkspace(), False
    backend = get_backend(options.backend)
    clock = _PhaseClock()
    results: list[MVNResult | None] = [None] * n_boxes
    threads_set = options.kernel_threads is not None
    prev_threads = set_kernel_threads(options.kernel_threads) if threads_set else None
    try:
        sweep = _sweep_wave_fused if fused else _sweep_wave
        for wave_start in range(0, n_boxes, boxes_per_wave):
            wave = list(range(wave_start, min(wave_start + boxes_per_wave, n_boxes)))
            sweep(wave, limits, factor, options, rt, n_samples, chain_block, timings, results, workspace, backend, clock)
    finally:
        if threads_set:
            set_kernel_threads(prev_threads)
        if claimed:
            workspace.release_wave_buffers()
    if timings is not None:
        timings.add("kernel_sweep", clock.kernel)
        timings.add("gemm_propagation", clock.gemm)
    for result in results:
        # phase seconds are whole-batch aggregates: chain blocks of different
        # boxes interleave on the workers, so per-box attribution is undefined
        result.details["backend"] = backend.name
        result.details["kernel_seconds"] = clock.kernel
        result.details["gemm_seconds"] = clock.gemm
        result.details["fusion"] = "fused" if fused else "interleaved"
    return results  # type: ignore[return-value]


def _resolve_fusion(
    options: PMVNOptions, n_boxes: int, n_samples: int, chain_block: int
) -> bool:
    """Decide whether this batch runs the fused (boxes x samples) schedule."""
    mode = options.fusion
    if mode not in BATCH_FUSION_MODES:
        raise ValueError(
            f"fusion must be one of {BATCH_FUSION_MODES}, got {mode!r}"
        )
    if mode == "interleaved":
        return False
    if options.return_prefix:
        if mode == "fused":
            raise ValueError(
                "return_prefix requires the interleaved batch schedule: prefix "
                "sums cannot be attributed per box across fused tiles"
            )
        return False
    if mode == "fused":
        return True
    # auto: fuse only when there is something to fuse and the column-lane
    # alignment (see _COLUMN_LANE) keeps results bitwise identical to the
    # interleaved schedule
    if n_boxes < 2:
        return False
    if n_samples % _COLUMN_LANE or chain_block % _COLUMN_LANE:
        return False
    return True


class SweepWorkspace:
    """Pooled work buffers for the PMVN sweep, rewritten in place.

    Allocating fresh workspace per wave would fault in new pages every time
    (orders of magnitude slower than writing warm memory on some systems);
    the pool pays the first-touch cost once and every later wave — and every
    later *call*, when the pool is held by a session object — recycles the
    same buffers.  Three kinds of buffer live here:

    * the wave matrices (limits / variates / samples / probabilities), keyed
      by (role, block slot, row block); a wave whose tail chunk is narrower
      simply takes a column view,
    * a checkout pool of :class:`~repro.core.kernel_backend.KernelWorkspace`
      objects (the kernel's row-scratch vectors), and
    * a checkout pool of GEMM scratch blocks for the limit-propagation
      products.

    The scratch pools are acquire/release (lock-guarded free lists) rather
    than thread-local: the runtime spawns fresh worker threads per
    ``wait_all``, so thread-local storage would die with them — the pools
    instead persist for the workspace's lifetime, bounded in size by the
    number of concurrently running tasks (= workers).  Buffers never carry
    state between calls — every task fully rewrites what it reads.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        self._lock = threading.Lock()
        self._kernel_pool: list[KernelWorkspace] = []
        self._gemm_pool: list[np.ndarray] = []
        self._gemm_rows = 0
        self._gemm_cols = 0
        self._wave_in_use = False

    def checkout_wave_buffers(self) -> bool:
        """Claim exclusive use of the keyed wave buffers (non-blocking).

        The scratch pools are safe under concurrency, but the wave matrices
        are keyed by (role, slot, row block) and would be shared by two
        sweeps running at once.  A sweep that fails to claim them falls back
        to a transient workspace instead of corrupting the pooled one — so
        concurrent queries against one :class:`~repro.solver.Model` stay
        correct, they just don't both get warm buffers.
        """
        with self._lock:
            if self._wave_in_use:
                return False
            self._wave_in_use = True
            return True

    def release_wave_buffers(self) -> None:
        with self._lock:
            self._wave_in_use = False

    def get(self, key: tuple, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or any(have < want for have, want in zip(buf.shape, shape)):
            have = (0,) * len(shape) if buf is None else buf.shape
            # grow to the elementwise max so alternating call shapes keep
            # reusing one buffer instead of thrashing reallocation
            buf = np.empty(tuple(max(h, w) for h, w in zip(have, shape)))
            self._buffers[key] = buf
        return buf[tuple(slice(0, want) for want in shape)]

    def acquire_kernel_workspace(self) -> KernelWorkspace:
        """Check a kernel scratch out of the pool (create on exhaustion)."""
        with self._lock:
            if self._kernel_pool:
                return self._kernel_pool.pop()
        return KernelWorkspace()

    def release_kernel_workspace(self, ws: KernelWorkspace) -> None:
        with self._lock:
            self._kernel_pool.append(ws)

    def acquire_gemm_scratch(self, rows: int, cols: int) -> np.ndarray:
        """Check a GEMM block of at least (rows, cols) out of the pool.

        Pooled blocks grow monotonically to the largest request seen, so the
        pool converges to one max-sized buffer per concurrent task; callers
        slice the returned base array to the shape they need and release the
        base back.
        """
        with self._lock:
            self._gemm_rows = max(self._gemm_rows, rows)
            self._gemm_cols = max(self._gemm_cols, cols)
            while self._gemm_pool:
                buf = self._gemm_pool.pop()
                if buf.shape[0] >= rows and buf.shape[1] >= cols:
                    return buf
                # undersized leftover from before the high-water mark grew
            rows, cols = self._gemm_rows, self._gemm_cols
        return np.empty((rows, cols))

    def release_gemm_scratch(self, buf: np.ndarray) -> None:
        with self._lock:
            self._gemm_pool.append(buf)


class _PhaseClock:
    """Thread-safe accumulator attributing sweep time to kernel vs GEMM."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.kernel = 0.0
        self.gemm = 0.0

    def add_kernel(self, seconds: float) -> None:
        with self._lock:
            self.kernel += seconds

    def add_gemm(self, seconds: float) -> None:
        with self._lock:
            self.gemm += seconds


def _sweep_wave(
    wave: list[int],
    limits: list[tuple[np.ndarray, np.ndarray]],
    factor: CholeskyFactor,
    options: PMVNOptions,
    rt: Runtime,
    n_samples: int,
    chain_block: int,
    timings: TimingRegistry | None,
    results: list,
    workspace: SweepWorkspace,
    backend: KernelBackend,
    clock: _PhaseClock,
) -> None:
    """Run one wave of boxes through the runtime and fill ``results``."""
    n = factor.n
    row_ranges = factor.row_ranges
    n_row_blocks = len(row_ranges)
    # row blocks whose lower limits are all -inf never change under the GEMM
    # propagation (-inf minus a finite update is -inf); their A-side axpy is
    # skipped per box
    neginf_blocks = {
        box: [bool(np.all(np.isneginf(limits[box][0][r0:r1]))) for (r0, r1) in row_ranges]
        for box in wave
    }

    # chain (column) blocks, box-aligned; the submission order below
    # interleaves same-position blocks across the boxes of the wave
    chain_ranges = [(c0, min(c0 + chain_block, n_samples)) for c0 in range(0, n_samples, chain_block)]
    n_chunks = len(chain_ranges)
    blocks: list[tuple[int, int, int, int]] = [
        (box, chunk, *chain_ranges[chunk]) for chunk in range(n_chunks) for box in wave
    ]
    n_blocks = len(blocks)

    a_blocks: list[list[np.ndarray]] = []
    b_blocks: list[list[np.ndarray]] = []
    y_blocks: list[list[np.ndarray]] = []
    r_blocks: list[list[np.ndarray]] = []
    p_segments: list[np.ndarray] = []
    prefix_sums = [np.zeros(n) for _ in range(n_blocks)] if options.return_prefix else None
    prefix_sumsqs = [np.zeros(n) for _ in range(n_blocks)] if options.return_prefix else None

    with timed(timings, "qmc_generation"):
        # Uniform variates for the whole sweep; the SOV recursion consumes one
        # row of uniforms per dimension (the last dimension's draw is unused).
        # One draw per box, in box order, so a batched call consumes the rng
        # exactly like the equivalent loop of single-box sweeps.
        r_matrices = {
            box: qmc_samples(n, n_samples, method=options.qmc, rng=options.rng)
            for box in wave
        }

    with timed(timings, "workspace_setup"):
        for slot, (box, _chunk, c0, c1) in enumerate(blocks):
            width = c1 - c0
            a_vec, b_vec = limits[box]
            r_matrix = r_matrices[box]
            a_col = []
            b_col = []
            y_col = []
            r_col = []
            for r_idx, (r0, r1) in enumerate(row_ranges):
                rows = r1 - r0
                a_tile = workspace.get(("a", slot, r_idx), (rows, width))
                a_tile[...] = a_vec[r0:r1, None]
                b_tile = workspace.get(("b", slot, r_idx), (rows, width))
                b_tile[...] = b_vec[r0:r1, None]
                y_tile = workspace.get(("y", slot, r_idx), (rows, width))
                y_tile[...] = 0.0
                r_tile = workspace.get(("r", slot, r_idx), (rows, width))
                np.copyto(r_tile, r_matrix[r0:r1, c0:c1])
                a_col.append(a_tile)
                b_col.append(b_tile)
                y_col.append(y_tile)
                r_col.append(r_tile)
            a_blocks.append(a_col)
            b_blocks.append(b_col)
            y_blocks.append(y_col)
            r_blocks.append(r_col)
            p_seg = workspace.get(("p", slot), (width,))
            p_seg[...] = 1.0
            p_segments.append(p_seg)
    del r_matrices

    labels = [f"{box}.{chunk}" for (box, chunk, _c0, _c1) in blocks]
    skip_a = [
        [neginf_blocks[box][j] for j in range(n_row_blocks)]
        for (box, _chunk, _c0, _c1) in blocks
    ]
    _submit_sweep(
        rt, factor, labels, a_blocks, b_blocks, y_blocks, r_blocks,
        p_segments, prefix_sums, prefix_sumsqs, skip_a,
        workspace, backend, clock, timings,
    )

    for box in wave:
        own = [k for k, blk in enumerate(blocks) if blk[0] == box]
        chain_values = np.concatenate([p_segments[k] for k in own])
        estimate = float(chain_values.mean())
        std_err = float(chain_values.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
        details: dict = {"chain_block": chain_block, "n_row_blocks": n_row_blocks}
        if options.return_prefix:
            total_sum = np.sum([prefix_sums[k] for k in own], axis=0)
            total_sumsq = np.sum([prefix_sumsqs[k] for k in own], axis=0)
            prefix_mean = total_sum / n_samples
            prefix_var = np.maximum(total_sumsq / n_samples - prefix_mean**2, 0.0)
            details["prefix_probabilities"] = prefix_mean
            details["prefix_errors"] = np.sqrt(prefix_var / n_samples)
        results[box] = MVNResult(estimate, std_err, n_samples, n, method="pmvn", details=details)


def _submit_sweep(
    rt: Runtime,
    factor: CholeskyFactor,
    labels: list[str],
    a_blocks: list[list[np.ndarray]],
    b_blocks: list[list[np.ndarray]],
    y_blocks: list[list[np.ndarray]],
    r_blocks: list[list[np.ndarray]],
    p_segments: list[np.ndarray],
    prefix_sums: list[np.ndarray] | None,
    prefix_sumsqs: list[np.ndarray] | None,
    skip_a: list[list[bool]],
    workspace: SweepWorkspace,
    backend: KernelBackend,
    clock: _PhaseClock,
    timings: TimingRegistry | None,
) -> None:
    """Submit one wave's task graph (steps (b)-(d)) and wait for it.

    Schedule-agnostic: the caller decides how the wave's chains are cut into
    column blocks (one per ``labels`` entry — interleaved per-box chunks or
    fused cross-box tiles) and hands over the filled tiles; this helper only
    wires the dependency graph.  ``skip_a[k][j]`` marks column blocks whose
    row block ``j`` has all-``-inf`` lower limits (the A-side axpy of the
    GEMM propagation is an exact no-op there and is skipped).
    """
    row_ranges = factor.row_ranges
    n_row_blocks = len(row_ranges)
    n_blocks = len(labels)

    # data handles for dependency inference
    def _handles(payloads, tag):
        return [
            [DataHandle(payloads[k][r], name=f"{tag}[{r},{labels[k]}]") for r in range(n_row_blocks)]
            for k in range(n_blocks)
        ]

    a_handles = _handles(a_blocks, "A")
    b_handles = _handles(b_blocks, "B")
    y_handles = _handles(y_blocks, "Y")
    r_handles = _handles(r_blocks, "R")
    p_handles = [DataHandle(p_segments[k], name=f"p[{labels[k]}]") for k in range(n_blocks)]
    diag_handles = [DataHandle(factor.diag_tile(r), name=f"L[{r},{r}]") for r in range(n_row_blocks)]

    def qmc_task(l_tile, r_tile, a_tile, b_tile, p_seg, y_tile, row_block: int, block_idx: int) -> None:
        start = time.perf_counter()
        r0, r1 = row_ranges[row_block]
        prefix = prefix_sums[block_idx][r0:r1] if prefix_sums is not None else None
        prefix_sq = prefix_sumsqs[block_idx][r0:r1] if prefix_sumsqs is not None else None
        kernel_ws = workspace.acquire_kernel_workspace()
        try:
            qmc_kernel_tile(
                l_tile, r_tile, a_tile, b_tile, p_seg, y_tile,
                prefix_sum=prefix, prefix_sumsq=prefix_sq,
                workspace=kernel_ws, backend=backend,
            )
        finally:
            workspace.release_kernel_workspace(kernel_ws)
        clock.add_kernel(time.perf_counter() - start)

    with timed(timings, "integration"):
        # step (b): first row block
        for k in range(n_blocks):
            rt.insert_task(
                qmc_task,
                (diag_handles[0], AccessMode.READ),
                (r_handles[k][0], AccessMode.READ),
                (a_handles[k][0], AccessMode.READWRITE),
                (b_handles[k][0], AccessMode.READWRITE),
                (p_handles[k], AccessMode.READWRITE),
                (y_handles[k][0], AccessMode.READWRITE),
                kwargs={"row_block": 0, "block_idx": k},
                name=f"qmc(0,{labels[k]})",
                priority=2 * n_row_blocks,
                tag="qmc",
            )
        # steps (c)/(d): propagate and advance the remaining row blocks
        for r in range(1, n_row_blocks):
            for j in range(r, n_row_blocks):
                for k in range(n_blocks):
                    rt.insert_task(
                        _gemm_limits_update,
                        (a_handles[k][j], AccessMode.READWRITE),
                        (b_handles[k][j], AccessMode.READWRITE),
                        (y_handles[k][r - 1], AccessMode.READ),
                        kwargs={
                            "factor": factor, "j": j, "r": r - 1,
                            "workspace": workspace,
                            "skip_a": skip_a[k][j],
                            "clock": clock,
                        },
                        name=f"gemm({j},{labels[k]},{r - 1})",
                        priority=2 * (n_row_blocks - r) + 1,
                        tag="gemm",
                    )
            for k in range(n_blocks):
                rt.insert_task(
                    qmc_task,
                    (diag_handles[r], AccessMode.READ),
                    (r_handles[k][r], AccessMode.READ),
                    (a_handles[k][r], AccessMode.READWRITE),
                    (b_handles[k][r], AccessMode.READWRITE),
                    (p_handles[k], AccessMode.READWRITE),
                    (y_handles[k][r], AccessMode.READWRITE),
                    kwargs={"row_block": r, "block_idx": k},
                    name=f"qmc({r},{labels[k]})",
                    priority=2 * (n_row_blocks - r),
                    tag="qmc",
                )
        rt.wait_all()


def _sweep_wave_fused(
    wave: list[int],
    limits: list[tuple[np.ndarray, np.ndarray]],
    factor: CholeskyFactor,
    options: PMVNOptions,
    rt: Runtime,
    n_samples: int,
    chain_block: int,
    timings: TimingRegistry | None,
    results: list,
    workspace: SweepWorkspace,
    backend: KernelBackend,
    clock: _PhaseClock,
) -> None:
    """Run one wave as a single fused (boxes x samples) sweep.

    The wave's boxes are laid side by side along the chain dimension — box
    ``w`` owns virtual columns ``[w * n_samples, (w+1) * n_samples)`` — and
    the combined width is cut into tiles of up to ``width`` columns that may
    span box boundaries.  Each column carries its own box's limits and
    variates, which the kernel handles exactly (see the module docs), so the
    per-chain probabilities equal the interleaved schedule's; tile widths
    stay multiples of :data:`_COLUMN_LANE` to keep the BLAS per-column
    results bitwise identical as well.
    """
    n = factor.n
    row_ranges = factor.row_ranges
    n_row_blocks = len(row_ranges)
    total = len(wave) * n_samples
    width = max(chain_block, min(BATCH_CHAIN_BLOCK, total))
    if width % _COLUMN_LANE and width > _COLUMN_LANE:
        width -= width % _COLUMN_LANE
    width = min(width, total)

    neginf_blocks = {
        box: [bool(np.all(np.isneginf(limits[box][0][r0:r1]))) for (r0, r1) in row_ranges]
        for box in wave
    }

    col_ranges = [(c0, min(c0 + width, total)) for c0 in range(0, total, width)]
    n_blocks = len(col_ranges)

    def _segments(c0: int, c1: int) -> list[tuple[int, int, int, int]]:
        """Box segments covering fused columns [c0, c1): (box, lo, hi, offset)."""
        segs = []
        for w_idx in range(c0 // n_samples, (c1 - 1) // n_samples + 1):
            lo = max(c0, w_idx * n_samples)
            hi = min(c1, (w_idx + 1) * n_samples)
            segs.append((wave[w_idx], lo - w_idx * n_samples, hi - w_idx * n_samples, lo - c0))
        return segs

    seg_lists = [_segments(c0, c1) for (c0, c1) in col_ranges]

    with timed(timings, "qmc_generation"):
        # one draw per box, in box order — identical rng consumption to the
        # interleaved schedule and to a loop of single-box sweeps
        r_matrices = {
            box: qmc_samples(n, n_samples, method=options.qmc, rng=options.rng)
            for box in wave
        }

    a_blocks: list[list[np.ndarray]] = []
    b_blocks: list[list[np.ndarray]] = []
    y_blocks: list[list[np.ndarray]] = []
    r_blocks: list[list[np.ndarray]] = []
    p_segments: list[np.ndarray] = []
    with timed(timings, "workspace_setup"):
        for slot, (c0, c1) in enumerate(col_ranges):
            w = c1 - c0
            a_col = []
            b_col = []
            y_col = []
            r_col = []
            for r_idx, (r0, r1) in enumerate(row_ranges):
                rows = r1 - r0
                a_tile = workspace.get(("a", slot, r_idx), (rows, w))
                b_tile = workspace.get(("b", slot, r_idx), (rows, w))
                y_tile = workspace.get(("y", slot, r_idx), (rows, w))
                y_tile[...] = 0.0
                r_tile = workspace.get(("r", slot, r_idx), (rows, w))
                for box, lo, hi, off in seg_lists[slot]:
                    a_vec, b_vec = limits[box]
                    seg = slice(off, off + (hi - lo))
                    a_tile[:, seg] = a_vec[r0:r1, None]
                    b_tile[:, seg] = b_vec[r0:r1, None]
                    np.copyto(r_tile[:, seg], r_matrices[box][r0:r1, lo:hi])
                a_col.append(a_tile)
                b_col.append(b_tile)
                y_col.append(y_tile)
                r_col.append(r_tile)
            a_blocks.append(a_col)
            b_blocks.append(b_col)
            y_blocks.append(y_col)
            r_blocks.append(r_col)
            p_seg = workspace.get(("p", slot), (w,))
            p_seg[...] = 1.0
            p_segments.append(p_seg)
    del r_matrices

    # the A-side axpy of a fused tile can only be skipped when *every* box
    # with columns in the tile has an all--inf lower-limit row block
    skip_a = [
        [
            all(neginf_blocks[box][j] for (box, _lo, _hi, _off) in seg_lists[k])
            for j in range(n_row_blocks)
        ]
        for k in range(n_blocks)
    ]
    labels = [f"f{k}" for k in range(n_blocks)]
    _submit_sweep(
        rt, factor, labels, a_blocks, b_blocks, y_blocks, r_blocks,
        p_segments, None, None, skip_a, workspace, backend, clock, timings,
    )

    for w_idx, box in enumerate(wave):
        g0 = w_idx * n_samples
        g1 = g0 + n_samples
        parts = []
        for k, (c0, c1) in enumerate(col_ranges):
            lo = max(c0, g0)
            hi = min(c1, g1)
            if lo < hi:
                parts.append(p_segments[k][lo - c0:hi - c0])
        chain_values = np.concatenate(parts)
        estimate = float(chain_values.mean())
        std_err = float(chain_values.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
        details: dict = {
            "chain_block": width,
            "n_row_blocks": n_row_blocks,
            "fused_cols": total,
        }
        results[box] = MVNResult(estimate, std_err, n_samples, n, method="pmvn", details=details)


def pmvn_integrate(
    a,
    b,
    factor: CholeskyFactor,
    options: PMVNOptions | None = None,
    runtime: Runtime | None = None,
    mean=0.0,
) -> MVNResult:
    """Estimate ``P(a <= X <= b)`` given a pre-computed Cholesky factor.

    This is the function Algorithm 1 calls repeatedly with the same factor
    and different limit vectors — the single-box case of
    :func:`pmvn_integrate_batch`.

    Parameters
    ----------
    a, b : array_like (n,)
        Integration limits (``+/- inf`` allowed).
    factor : CholeskyFactor
        Dense-tile or TLR factor of the covariance (see
        :func:`repro.core.factor.factorize`).
    options : PMVNOptions
        Sample size, chain block, QMC sequence, prefix output.
    runtime : Runtime, optional
        Task runtime; defaults to serial execution.
    mean : float or array_like
        Mean vector, absorbed into the limits.
    """
    if np.isscalar(mean):
        means = mean
    else:
        arr = np.asarray(mean, dtype=np.float64)
        # hand a scalar or an explicit (1, n) per-box row to the batched
        # resolver — never a flat length-1 sequence, which it would flag as
        # ambiguous for 1-dimensional problems (n == n_boxes == 1)
        means = float(arr) if arr.ndim == 0 else arr[None, :]
    return pmvn_integrate_batch([(a, b)], factor, options, runtime=runtime, means=means)[0]


def pmvn_dense(
    a,
    b,
    sigma,
    n_samples: int = 10_000,
    tile_size: int | None = None,
    runtime: Runtime | None = None,
    mean=0.0,
    qmc: str = "richtmyer",
    rng=None,
    timings: TimingRegistry | None = None,
    chain_block: int | None = None,
    factor: CholeskyFactor | None = None,
    backend: str | None = None,
    workspace: SweepWorkspace | None = None,
    kernel_threads: int | None = None,
) -> MVNResult:
    """Dense tile-parallel MVN probability (tiled Cholesky + PMVN sweep).

    Pass ``factor=`` (e.g. from :func:`repro.core.factor.factorize` or a
    :class:`repro.batch.FactorCache`) to reuse a factorization and skip the
    Cholesky entirely.  ``backend=`` selects the QMC kernel implementation
    and ``workspace=`` reuses a pooled :class:`SweepWorkspace` across calls
    (see :class:`PMVNOptions`).
    """
    if factor is None:
        factor = factorize(sigma, method="dense", tile_size=tile_size, runtime=runtime, timings=timings)
    elif not isinstance(factor, CholeskyFactor):
        raise TypeError(f"factor must be a CholeskyFactor, got {type(factor).__name__}")
    options = PMVNOptions(
        n_samples=n_samples, chain_block=chain_block, qmc=qmc, rng=rng,
        backend=backend, workspace=workspace, timings=timings,
        kernel_threads=kernel_threads,
    )
    result = pmvn_integrate(a, b, factor, options, runtime=runtime, mean=mean)
    result.method = "pmvn-dense"
    result.details["tile_size"] = factor.tile_size
    return result


def pmvn_tlr(
    a,
    b,
    sigma,
    n_samples: int = 10_000,
    tile_size: int | None = None,
    accuracy: float = 1e-3,
    max_rank: int | None = None,
    runtime: Runtime | None = None,
    mean=0.0,
    qmc: str = "richtmyer",
    rng=None,
    timings: TimingRegistry | None = None,
    chain_block: int | None = None,
    compression: str = "svd",
    factor: CholeskyFactor | None = None,
    backend: str | None = None,
    workspace: SweepWorkspace | None = None,
    kernel_threads: int | None = None,
) -> MVNResult:
    """TLR-accelerated MVN probability (TLR Cholesky + PMVN sweep).

    Pass ``factor=`` to reuse a pre-computed TLR factorization and skip both
    the compression and the Cholesky.  ``backend=`` / ``workspace=`` select
    the QMC kernel implementation and reuse pooled sweep buffers (see
    :class:`PMVNOptions`).
    """
    if factor is None:
        factor = factorize(
            sigma,
            method="tlr",
            tile_size=tile_size,
            accuracy=accuracy,
            max_rank=max_rank,
            runtime=runtime,
            timings=timings,
            compression=compression,
        )
    elif not isinstance(factor, CholeskyFactor):
        raise TypeError(f"factor must be a CholeskyFactor, got {type(factor).__name__}")
    options = PMVNOptions(
        n_samples=n_samples, chain_block=chain_block, qmc=qmc, rng=rng,
        backend=backend, workspace=workspace, timings=timings,
        kernel_threads=kernel_threads,
    )
    result = pmvn_integrate(a, b, factor, options, runtime=runtime, mean=mean)
    result.method = "pmvn-tlr"
    result.details["tile_size"] = factor.tile_size
    result.details["tlr_accuracy"] = accuracy
    result.details["max_rank"] = factor.tlr.max_offdiag_rank() if hasattr(factor, "tlr") else None
    return result
