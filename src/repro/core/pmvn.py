"""PMVN: the parallel tile-based SOV integration (Algorithm 2).

The integration sweep works on four conceptual ``n x N`` matrices — the
replicated limits ``A`` and ``B``, the uniform variates ``R`` and the
transformed samples ``Y`` — partitioned into row blocks matching the factor's
tile rows and into column tiles of MC chains.  Per the paper:

* step (b)/(d): a QMC kernel task per (row block, column tile) pair,
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
pre-computed factor in a single task-graph submission; :func:`pmvn_integrate`
is the single-box special case.  Every box sweeps the variates a
single-box call with the same ``rng`` would draw, and each MC chain is
independent, so the per-chain probabilities are the same values a loop of
single-box sweeps would produce — batching changes the schedule, not the
estimator.  An integer seed yields the same variates for every box, so it
is drawn once per sweep and shared read-only; a ``Generator`` (or ``None``)
draws once per box, in box order, so the batch consumes it exactly like the
loop.  Either way the results are unchanged.

How the chains are cut is one rule (:func:`sweep_tiles`): waves of whole
boxes, each cut into one tile per runtime worker unless that would pass
:data:`WORKER_TILE_COLS` chains, so one worker sweeps a serving micro-batch
as one wide tile.  Each kernel row costs about ten NumPy calls whatever the
tile width, so only the width amortizes them.  When a batch holds at least
two boxes, requests no prefix sums, and ``n_samples`` is a multiple of
:data:`_COLUMN_LANE`, a wave's boxes are laid side by side along the chain
dimension and its tiles may span box boundaries; otherwise each box is cut
into its own chunks.
That is legal because the QMC kernel is exact for heterogeneous per-column
limits (each chain only reads its own column), and bitwise identical
because lane-aligned cuts keep every column at the same SIMD-lane position
in its BLAS calls.  A prefix sweep is cut by the same rule, in whole
accumulation segments of :data:`BATCH_CHAIN_BLOCK` chains: the kernel keeps
each row's running product and sums every segment after its row loop, and
the segment sums are added in chain order, so the prefix arrays do not
depend on how many segments a tile holds (nor on the worker count).
``details["fusion"]`` records which layout ran (``"fused"`` or
``"interleaved"``).

A wider tile must not grow the working set, so the sweep materializes only
what it reads: a row block whose limits on one side are all infinite gets a
read-only broadcast view for that side (the kernel reads only its sign, and
the GEMM propagation skips it), and ``Y`` is never cleared, because the
kernel writes each row before anything reads it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.factor import CholeskyFactor
from repro.core.kernel_backend import KernelBackend, KernelWorkspace, get_backend
from repro.core.qmc_kernel import qmc_kernel_tile
from repro.mvn.result import MVNResult
from repro.runtime import AccessMode, DataHandle, Runtime
from repro.stats.qmc import qmc_samples
from repro.utils.timers import add_timing, timed
from repro.utils.validation import check_limits, check_mean, check_positive_int

__all__ = [
    "PMVNOptions",
    "SweepWorkspace",
    "pmvn_integrate",
    "pmvn_integrate_batch",
    "sweep_tiles",
]

#: chains per accumulation segment of a prefix sweep.  Its prefix sums are
#: taken per segment and then added across segments in chain order, which
#: fixes their summation order; a prefix sweep's tiles are cut by the same
#: rule as every other sweep's, in whole segments
BATCH_CHAIN_BLOCK = 512

#: chains one runtime worker sweeps as one tile (``C`` of the layout rule,
#: :func:`sweep_tiles`).  Fixed per-row kernel overhead favours wide tiles,
#: the cache narrow ones; 1536 swept a serving micro-batch (n = 256) fastest
#: of 1024 / 1536 / 2048 on a 2-core x86 box
WORKER_TILE_COLS = 1536

#: hard cap on the total workspace columns (chains) materialized at once by
#: the batched sweep.  The four ``n x cols`` work matrices plus the variates
#: cost ``~40 * n * cols`` bytes.
BATCH_WORKSPACE_COLS = 4_000_000

#: SIMD column-lane width cross-box tiles align to.  BLAS kernels process
#: matrix columns in fixed-width lane groups with a different microkernel for
#: the tail; keeping every cross-box tile width and box offset a multiple of
#: this lane makes each column land in the same lane group as in per-box
#: chunks, so per-column GEMM/GEMV results are bitwise unchanged.
_COLUMN_LANE = 8


@dataclass
class PMVNOptions:
    """Knobs of the PMVN integration sweep.

    Attributes
    ----------
    n_samples : int
        QMC sample size ``N`` (the paper uses 100 / 1,000 / 10,000).
    chain_block : int, optional
        Number of MC chains per column tile.  By default the layout rule
        (:func:`sweep_tiles`) sizes the tiles from the worker count and
        :data:`WORKER_TILE_COLS`, a prefix sweep in whole
        ``max(tile_size, min(BATCH_CHAIN_BLOCK, n_samples))``-chain
        accumulation segments.  An explicit value fixes every tile's width
        (and a prefix sweep's segment), cross-box tiles included, and sizes
        the waves in its place.  Results do not depend on this knob beyond
        BLAS rounding (none at all for multiples of the column lane, 8).
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
        QMC kernel backend (``"numpy"`` or ``"reference"``); ``None``
        follows ``$REPRO_KERNEL_BACKEND`` and defaults to the fused
        bit-identical ``"numpy"`` backend.  See
        :mod:`repro.core.kernel_backend`.
    workspace : SweepWorkspace, optional
        Pooled work buffers reused across calls (a
        :class:`repro.solver.MVNSolver` holds one for all its models); a
        fresh pool is created when omitted.
    """

    n_samples: int = 10_000
    chain_block: int | None = None
    qmc: str = "richtmyer"
    rng: object = None
    return_prefix: bool = False
    max_workspace_cols: int | None = None
    backend: str | None = None
    workspace: "SweepWorkspace | None" = field(default=None, repr=False)


def _gemm_limits_update(
    a_block: np.ndarray,
    b_block: np.ndarray,
    y_block: np.ndarray,
    factor: CholeskyFactor,
    j: int,
    r: int,
    workspace: "SweepWorkspace",
    skip_a: bool,
    skip_b: bool,
    clock: "_PhaseClock",
) -> None:
    """Task body for step (c): subtract ``L[j, r] @ Y[r]`` from both limit blocks.

    The product lands in a per-worker scratch block (``out=`` GEMM / low-rank
    apply) and is then axpy'd into the limit blocks in place, so the trailing
    updates allocate nothing.  ``skip_a`` marks row blocks whose lower limits
    are all ``-inf`` and ``skip_b`` those whose upper limits are all
    ``+inf``: subtracting a finite update from an infinity is an exact
    no-op, so that side's traffic is skipped entirely (bit-identical).
    """
    start = time.perf_counter()
    rows, cols = a_block.shape
    base = workspace.acquire_gemm_scratch(rows, cols)
    try:
        update = base[:rows, :cols]
        factor.apply_offdiag_into(j, r, y_block, out=update)
        if not skip_a:
            a_block -= update
        if not skip_b:
            b_block -= update
    finally:
        workspace.release_gemm_scratch(base)
    clock.add_gemm(time.perf_counter() - start)


def _check_boxes(boxes, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Validate ``(a, b)`` limit pairs of dimension ``n``: every entry point's box check."""
    checked = []
    for idx, box in enumerate(boxes):
        try:
            a_raw, b_raw = box
        except (TypeError, ValueError):
            raise ValueError(f"box {idx} must be an (a, b) pair of limit vectors") from None
        checked.append(check_limits(a_raw, b_raw, n))
    return checked


def _resolve_means(means, n_boxes: int, n: int) -> list[np.ndarray]:
    """Canonicalize the ``means`` argument of the batched sweep.

    Accepts ``None`` (zero mean), a scalar or length-``n`` vector shared by
    all boxes, a length-``n_boxes`` sequence of per-box scalars, or per-box
    vectors as an ``(n_boxes, n)`` array / nested sequence.  A flat numeric
    sequence whose length is both ``n`` and ``n_boxes`` is ambiguous and
    rejected — disambiguate with a shape-``(n_boxes, n)`` array.  Every
    mean passes :func:`~repro.utils.validation.check_mean`.
    """
    if means is None:
        return [np.zeros(n)] * n_boxes
    try:
        arr = np.asarray(means, dtype=np.float64)
    except (TypeError, ValueError):
        seq = list(means)  # ragged per-box entries
    else:
        if arr.ndim == 1 and arr.shape[0] == n == n_boxes:
            raise ValueError(
                f"means of length {n} is ambiguous (n == n_boxes): pass a shared mean "
                f"as a scalar or an (n_boxes, n) array of per-box means"
            )
        if arr.ndim == 0 or arr.shape == (n,):
            return [np.broadcast_to(check_mean(arr, n), n)] * n_boxes
        if arr.ndim == 1 and arr.shape[0] != n_boxes:
            raise ValueError(
                f"means must be a scalar, a shared ({n},) vector, {n_boxes} per-box "
                f"scalars, or an ({n_boxes}, {n}) array; got shape {arr.shape}"
            )
        if arr.ndim == 2 and arr.shape != (n_boxes, n):
            raise ValueError(f"per-box means must have shape ({n_boxes}, {n}), got {arr.shape}")
        seq = list(arr)
    if len(seq) != n_boxes:
        raise ValueError(f"means must provide one entry per box ({n_boxes}), got {len(seq)}")
    return [np.broadcast_to(check_mean(mean, n), n) for mean in seq]


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
    PMVN sweeps of all boxes run through a single task-graph submission,
    their chains cut into column tiles by one layout rule (see the module
    docs).

    An integer ``options.rng`` seeds the same variates for every box, so
    they are drawn once per sweep and shared; a ``Generator`` (or ``None``)
    draws once per box, in box order.  Either way the per-chain
    probabilities — and hence the estimates — match a loop of
    :func:`pmvn_integrate` calls with the same seed.

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
    limits = [(a - mu, b - mu) for (a, b), mu in zip(_check_boxes(boxes, n), mus)]

    n_samples = check_positive_int(options.n_samples, "n_samples")
    fused, waves = sweep_tiles(
        n_boxes, n, n_samples, rt.n_workers, factor.tile_size,
        prefix=options.return_prefix, chain_block=options.chain_block,
        max_cols=options.max_workspace_cols,
    )

    # Uniform variates: the SOV recursion consumes one row per dimension
    # (the last dimension's draw is unused).  Every box's default_rng(seed)
    # of an integer seed yields the same matrix, so it is drawn once and
    # shared read-only; other sources draw per box, in box order.
    def draw() -> np.ndarray:
        return qmc_samples(n, n_samples, method=options.qmc, rng=options.rng)

    shared = None
    if isinstance(options.rng, (int, np.integer)):
        with timed("qmc_generation"):
            shared = draw()
        shared.flags.writeable = False

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
    try:
        for wave, tiles in waves:
            if shared is None:
                with timed("qmc_generation"):
                    variates = {box: draw() for box in wave}
            else:
                variates = dict.fromkeys(wave, shared)
            _sweep_wave(wave, tiles, variates, limits, factor, options, rt, n_samples,
                        fused, results, workspace, backend, clock)
            del variates  # free this wave's draws before the next wave's
    finally:
        if claimed:
            workspace.release_wave_buffers()
    add_timing("kernel_sweep", clock.kernel)
    add_timing("gemm_propagation", clock.gemm)
    for result in results:
        # phase seconds are whole-batch aggregates: chain blocks of different
        # boxes interleave on the workers, so per-box attribution is undefined
        result.details["backend"] = backend.name
        result.details["kernel_seconds"] = clock.kernel
        result.details["gemm_seconds"] = clock.gemm
        result.details["fusion"] = "fused" if fused else "interleaved"
    return results  # type: ignore[return-value]


class SweepWorkspace:
    """Pooled work buffers for the PMVN sweep, rewritten in place.

    Allocating fresh workspace per wave would fault in new pages every time
    (orders of magnitude slower than writing warm memory on some systems);
    the pool pays the first-touch cost once and every later wave — and every
    later *call*, when the pool is held by a session object — recycles the
    same buffers.  Three kinds of buffer live here:

    * the wave matrices (limits / samples / probabilities, and the variates
      of tiles that span boxes), keyed by (role, block slot, row block); a
      wave whose tail chunk is narrower simply takes a column view,
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
        concurrent sweeps against one :class:`~repro.solver.MVNSolver`'s
        pool stay correct, they just don't both get warm buffers.
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


def sweep_tiles(
    n_boxes: int,
    n: int,
    n_samples: int,
    n_workers: int,
    tile_size: int,
    *,
    prefix: bool = False,
    chain_block: int | None = None,
    max_cols: int | None = None,
) -> tuple[bool, list[tuple[list[int], list[list[tuple[int, int, int, int]]]]]]:
    """The sweep's layout rule: ``(fused, [(wave, tiles), ...])``.

    A sweep of ``n_boxes`` boxes of ``n_samples`` chains on ``n_workers``
    runtime workers runs in waves of whole boxes; each wave is cut into
    column tiles, one kernel task per (row block, tile).  Each tile is a
    list of ``(box, lo, hi, offset)`` segments: chains ``[lo, hi)`` of
    ``box`` fill the tile's columns from ``offset`` on.  In a prefix sweep
    each segment is also one accumulation segment of the prefix sums.

    * A wave holds up to ``n_workers * C`` chains, at least one box and at
      most ``max_cols`` (:data:`BATCH_WORKSPACE_COLS` scaled by the
      dimension ``n``), so the pooled working set stays wave-sized however
      many boxes are queued.
    * By default ``C`` is :data:`WORKER_TILE_COLS` and a wave of ``cols``
      chains is cut into ``max(n_workers, ceil(cols / C))`` tiles, their
      width rounded up to the column lane: one tile per worker at least,
      none wider than ``C`` but for the lane.
    * A prefix sweep rounds the width up to whole segments of
      ``max(tile_size, min(BATCH_CHAIN_BLOCK, n_samples))`` chains and
      lists each segment on its own.  An explicit ``chain_block`` fixes the
      width (and ``C``, and a prefix sweep's segment).

    ``fused`` waves lay their boxes side by side — box ``w`` of the wave owns
    virtual columns ``[w * n_samples, (w+1) * n_samples)`` — and cut tiles
    across box boundaries; that needs several boxes, no prefix sums (they
    accumulate per segment) and lane-aligned ``n_samples`` and width, so every
    cut and box offset is a multiple of :data:`_COLUMN_LANE`.  Other waves
    cut each box into chunks of the width, in chunk-major order (the same
    chunk of every box of the wave, then the next chunk).
    """
    if chain_block is not None:
        chain_block = check_positive_int(min(chain_block, n_samples), "chain_block")
    segment = None
    if prefix:
        segment = chain_block or min(max(tile_size, BATCH_CHAIN_BLOCK), n_samples)
    fused = (
        n_boxes > 1 and not prefix and n_samples % _COLUMN_LANE == 0
        and (chain_block is None or chain_block % _COLUMN_LANE == 0)
    )
    max_cols = int(max_cols or max(n_samples, BATCH_WORKSPACE_COLS // max(n, 1)))
    wave_cols = min(n_workers * (chain_block or WORKER_TILE_COLS), max_cols)
    per_wave = min(n_boxes, max(1, wave_cols // n_samples))
    waves = []
    for start in range(0, n_boxes, per_wave):
        wave = list(range(start, min(start + per_wave, n_boxes)))
        total = len(wave) * n_samples
        width = chain_block
        if width is None:
            width = -(-total // max(n_workers, -(-total // WORKER_TILE_COLS)))
            width += -width % (segment or _COLUMN_LANE)
        if fused:
            tiles = []
            for c0 in range(0, total, width):
                c1 = min(c0 + width, total)
                segments = []
                for w in range(c0 // n_samples, (c1 - 1) // n_samples + 1):
                    lo, hi = max(c0, w * n_samples), min(c1, (w + 1) * n_samples)
                    segments.append((wave[w], lo - w * n_samples, hi - w * n_samples, lo - c0))
                tiles.append(segments)
        else:
            step = segment or width
            tiles = [[(box, lo, min(lo + step, c0 + width, n_samples), lo - c0)
                      for lo in range(c0, min(c0 + width, n_samples), step)]
                     for c0 in range(0, n_samples, width) for box in wave]
        waves.append((wave, tiles))
    return fused, waves


def _sweep_wave(
    wave: list[int],
    tiles: list[list[tuple[int, int, int, int]]],
    variates: dict[int, np.ndarray],
    limits: list[tuple[np.ndarray, np.ndarray]],
    factor: CholeskyFactor,
    options: PMVNOptions,
    rt: Runtime,
    n_samples: int,
    fused: bool,
    results: list,
    workspace: SweepWorkspace,
    backend: KernelBackend,
    clock: _PhaseClock,
) -> None:
    """Run one wave of boxes through the runtime and fill ``results``.

    ``variates[box]`` is the ``(n, n_samples)`` uniform matrix of each box
    of the wave, and ``tiles`` its column tiles (:func:`sweep_tiles`).
    Every column carries its own box's limits and variates, so the task
    graph of steps (b)-(d) is the same however the tiles were cut.
    """
    n = factor.n
    row_ranges = factor.row_ranges
    n_row_blocks = len(row_ranges)
    n_tiles = len(tiles)
    widths = [sum(hi - lo for (_box, lo, hi, _off) in tile) for tile in tiles]
    segments = [[(off, off + hi - lo) for (_box, lo, hi, off) in tile] for tile in tiles]

    # row blocks whose lower limits are all -inf (upper limits all +inf)
    # never change under the GEMM propagation (an infinity minus a finite
    # update is itself); a tile skips that side's axpy where every box with
    # columns in it has such a block
    def infinite_blocks(side: int, test) -> list[list[bool]]:
        per_box = {
            box: [bool(np.all(test(limits[box][side][r0:r1]))) for (r0, r1) in row_ranges]
            for box in wave
        }
        return [
            [all(per_box[box][j] for (box, _lo, _hi, _off) in tile) for j in range(n_row_blocks)]
            for tile in tiles
        ]

    skip = (infinite_blocks(0, np.isneginf), infinite_blocks(1, np.isposinf))
    # prefix sums: one row per accumulation segment of each tile
    prefix_sums = [np.zeros((len(tile), n)) for tile in tiles] if options.return_prefix else None
    prefix_sumsqs = [np.zeros((len(tile), n)) for tile in tiles] if options.return_prefix else None

    def limit_tile(side: int, slot: int, r_idx: int, shape: tuple[int, int]) -> np.ndarray:
        if skip[side][slot][r_idx]:
            # all infinite: the kernel reads only the sign and the GEMM
            # skips the side, so a read-only view stands in for a buffer
            return np.broadcast_to(np.inf if side else -np.inf, shape)
        out = workspace.get(("ab"[side], slot, r_idx), shape)
        r0, r1 = row_ranges[r_idx]
        for box, lo, hi, off in tiles[slot]:
            out[:, off:off + (hi - lo)] = limits[box][side][r0:r1, None]
        return out

    a_blocks: list[list[np.ndarray]] = []
    b_blocks: list[list[np.ndarray]] = []
    y_blocks: list[list[np.ndarray]] = []
    r_blocks: list[list[np.ndarray]] = []
    p_segments: list[np.ndarray] = []
    with timed("workspace_setup"):
        for slot, (tile, width) in enumerate(zip(tiles, widths)):
            a_col = []
            b_col = []
            y_col = []
            r_col = []
            for r_idx, (r0, r1) in enumerate(row_ranges):
                shape = (r1 - r0, width)
                a_col.append(limit_tile(0, slot, r_idx, shape))
                b_col.append(limit_tile(1, slot, r_idx, shape))
                # never cleared: the kernel writes each row of Y before
                # anything reads it
                y_col.append(workspace.get(("y", slot, r_idx), shape))
                if len({box for (box, _lo, _hi, _off) in tile}) == 1:
                    # a one-box tile reads its variates in place: the
                    # kernel only reads them, row by row
                    r_tile = variates[tile[0][0]][r0:r1, tile[0][1]:tile[-1][2]]
                else:
                    r_tile = workspace.get(("r", slot, r_idx), shape)
                    for box, lo, hi, off in tile:
                        np.copyto(r_tile[:, off:off + (hi - lo)], variates[box][r0:r1, lo:hi])
                r_col.append(r_tile)
            a_blocks.append(a_col)
            b_blocks.append(b_col)
            y_blocks.append(y_col)
            r_blocks.append(r_col)
            p_seg = workspace.get(("p", slot), (width,))
            p_seg[...] = 1.0
            p_segments.append(p_seg)

    # data handles for dependency inference
    def _handles(payloads, tag):
        return [
            [DataHandle(payloads[k][r], name=f"{tag}[{r},{k}]") for r in range(n_row_blocks)]
            for k in range(n_tiles)
        ]

    a_handles = _handles(a_blocks, "A")
    b_handles = _handles(b_blocks, "B")
    y_handles = _handles(y_blocks, "Y")
    r_handles = _handles(r_blocks, "R")
    p_handles = [DataHandle(p_segments[k], name=f"p[{k}]") for k in range(n_tiles)]
    diag_handles = [DataHandle(factor.diag_tile(r), name=f"L[{r},{r}]") for r in range(n_row_blocks)]

    def qmc_task(l_tile, r_tile, a_tile, b_tile, p_seg, y_tile, row_block: int, block_idx: int) -> None:
        start = time.perf_counter()
        r0, r1 = row_ranges[row_block]
        prefix = prefix_sums[block_idx][:, r0:r1] if prefix_sums is not None else None
        prefix_sq = prefix_sumsqs[block_idx][:, r0:r1] if prefix_sumsqs is not None else None
        kernel_ws = workspace.acquire_kernel_workspace()
        try:
            qmc_kernel_tile(
                l_tile, r_tile, a_tile, b_tile, p_seg, y_tile,
                prefix_sum=prefix, prefix_sumsq=prefix_sq, segments=segments[block_idx],
                workspace=kernel_ws, backend=backend,
            )
        finally:
            workspace.release_kernel_workspace(kernel_ws)
        clock.add_kernel(time.perf_counter() - start)

    with rt.lock, timed("integration"):
        # step (b): first row block
        for k in range(n_tiles):
            rt.insert_task(
                qmc_task,
                (diag_handles[0], AccessMode.READ),
                (r_handles[k][0], AccessMode.READ),
                (a_handles[k][0], AccessMode.READWRITE),
                (b_handles[k][0], AccessMode.READWRITE),
                (p_handles[k], AccessMode.READWRITE),
                (y_handles[k][0], AccessMode.READWRITE),
                kwargs={"row_block": 0, "block_idx": k},
                name=f"qmc(0,{k})",
                priority=2 * n_row_blocks,
                tag="qmc",
            )
        # steps (c)/(d): propagate and advance the remaining row blocks
        for r in range(1, n_row_blocks):
            for j in range(r, n_row_blocks):
                for k in range(n_tiles):
                    rt.insert_task(
                        _gemm_limits_update,
                        (a_handles[k][j], AccessMode.READWRITE),
                        (b_handles[k][j], AccessMode.READWRITE),
                        (y_handles[k][r - 1], AccessMode.READ),
                        kwargs={
                            "factor": factor, "j": j, "r": r - 1,
                            "workspace": workspace,
                            "skip_a": skip[0][k][j],
                            "skip_b": skip[1][k][j],
                            "clock": clock,
                        },
                        name=f"gemm({j},{k},{r - 1})",
                        priority=2 * (n_row_blocks - r) + 1,
                        tag="gemm",
                    )
            for k in range(n_tiles):
                rt.insert_task(
                    qmc_task,
                    (diag_handles[r], AccessMode.READ),
                    (r_handles[k][r], AccessMode.READ),
                    (a_handles[k][r], AccessMode.READWRITE),
                    (b_handles[k][r], AccessMode.READWRITE),
                    (p_handles[k], AccessMode.READWRITE),
                    (y_handles[k][r], AccessMode.READWRITE),
                    kwargs={"row_block": r, "block_idx": k},
                    name=f"qmc({r},{k})",
                    priority=2 * (n_row_blocks - r),
                    tag="qmc",
                )
        rt.wait_all()

    # each box's chains, in sample order, as (tile, segment, column view)
    owned: dict[int, list[tuple[int, int, np.ndarray]]] = {box: [] for box in wave}
    for k, tile in enumerate(tiles):
        for s, (box, lo, hi, off) in enumerate(tile):
            owned[box].append((k, s, p_segments[k][off:off + (hi - lo)]))
    for box in wave:
        chain_values = np.concatenate([values for (_k, _s, values) in owned[box]])
        estimate = float(chain_values.mean())
        std_err = float(chain_values.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
        details: dict = {"chain_block": widths[0], "n_row_blocks": n_row_blocks}
        if fused:
            details["fused_cols"] = len(wave) * n_samples
        if options.return_prefix:
            # prefix sums never fuse: every segment of the box's tiles is
            # its own, added in chain order
            total_sum = np.sum([prefix_sums[k][s] for (k, s, _values) in owned[box]], axis=0)
            total_sumsq = np.sum([prefix_sumsqs[k][s] for (k, s, _values) in owned[box]], axis=0)
            prefix_mean = total_sum / n_samples
            prefix_var = np.maximum(total_sumsq / n_samples - prefix_mean**2, 0.0)
            details["prefix_probabilities"] = prefix_mean
            details["prefix_errors"] = np.sqrt(prefix_var / n_samples)
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
        Mean, absorbed into the limits: ``None`` (zero), a scalar, or an
        ``(n,)`` vector, which may come as a ``(1, n)`` row (see
        :func:`~repro.utils.validation.check_mean`).
    """
    means = np.broadcast_to(check_mean(mean, factor.n), (1, factor.n))
    return pmvn_integrate_batch([(a, b)], factor, options, runtime=runtime, means=means)[0]


def _stamp_estimator(results: list[MVNResult], method: str, factor: CholeskyFactor) -> None:
    """Stamp the estimator name and the settings of the factor it swept.

    TLR settings are read off the factor itself, so a pre-built or rank-k
    updated factor reports the accuracy it was compressed at.
    """
    tlr_details = {}
    if method == "tlr":
        tlr = getattr(factor, "tlr", None)
        tlr_details = {
            "tlr_accuracy": None if tlr is None else tlr.accuracy,
            "max_rank": None if tlr is None else tlr.max_offdiag_rank(),
        }
    for result in results:
        result.method = f"pmvn-{method}"
        result.details["tile_size"] = factor.tile_size
        result.details.update(tlr_details)
