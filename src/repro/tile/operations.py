"""Tiled BLAS-3 style helpers built on the runtime.

These are the remaining building blocks the PMVN sweep and the tests need:
a general tiled GEMM, a tiled forward substitution with a lower-triangular
tile factor, and a tiled matrix-vector product.

The accumulation kernels follow the hot-path discipline of
:mod:`repro.core.kernel_backend`: products land in per-thread scratch blocks
(``out=`` GEMM) and are axpy'd into the output tiles in place, so repeated
trailing updates reuse warm buffers instead of allocating one fresh product
per task.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.runtime import AccessMode, DataHandle, Runtime
from repro.tile.dense_kernels import gemm_flops
from repro.tile.layout import TileMatrix
from repro.utils.validation import ensure_1d, ensure_2d

__all__ = ["tiled_gemm", "tiled_lower_solve", "tiled_matvec"]

# Acquire/release pool of product buffers (same pattern as SweepWorkspace in
# repro.core.pmvn): the runtime spawns fresh worker threads per wait_all, so
# thread-local storage would die with them — the pool persists for the
# process, bounded in size by the number of concurrently running tasks.
_SCRATCH_LOCK = threading.Lock()
_SCRATCH_POOL: list[np.ndarray] = []
_SCRATCH_SHAPE = [0, 0]


def _acquire_scratch(rows: int, cols: int) -> np.ndarray:
    """Check a product buffer of at least (rows, cols) out of the pool."""
    with _SCRATCH_LOCK:
        _SCRATCH_SHAPE[0] = max(_SCRATCH_SHAPE[0], rows)
        _SCRATCH_SHAPE[1] = max(_SCRATCH_SHAPE[1], cols)
        while _SCRATCH_POOL:
            buf = _SCRATCH_POOL.pop()
            if buf.shape[0] >= rows and buf.shape[1] >= cols:
                return buf
            # undersized leftover from before the high-water mark grew
        rows, cols = _SCRATCH_SHAPE
    return np.empty((rows, cols))


def _release_scratch(buf: np.ndarray) -> None:
    with _SCRATCH_LOCK:
        _SCRATCH_POOL.append(buf)


def _lower_tile(matrix: TileMatrix, i: int, j: int) -> np.ndarray:
    """Tile (i, j) of a symmetric matrix stored lower-only (transposing as needed)."""
    if not matrix.lower_only or j <= i:
        return matrix.tile(i, j)
    return matrix.tile(j, i).T


def tiled_gemm(
    a: TileMatrix,
    b: TileMatrix,
    alpha: float = 1.0,
    runtime: Runtime | None = None,
) -> TileMatrix:
    """Compute ``C = alpha * A @ B`` tile by tile through the runtime.

    ``A`` may be stored lower-only (symmetric); ``B`` must be a full layout.
    The inner accumulation over ``k`` is expressed as a chain of READWRITE
    tasks on the same output tile, so the runtime serializes them while
    different output tiles proceed in parallel.
    """
    if a.n != b.m:
        raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")
    if b.lower_only:
        raise ValueError("tiled_gemm requires B in full layout")
    if a.tile_size != b.tile_size:
        raise ValueError("A and B must share the tile size")
    rt = Runtime.ensure(runtime)
    c = TileMatrix.zeros(a.m, b.n, a.tile_size)
    c_handles = {(i, j): DataHandle(c.tile(i, j), name=f"C[{i},{j}]") for i in range(c.mt) for j in range(c.nt)}

    def accumulate(c_tile: np.ndarray, a_tile: np.ndarray, b_tile: np.ndarray) -> None:
        rows, cols = c_tile.shape
        base = _acquire_scratch(rows, cols)
        try:
            product = base[:rows, :cols]
            np.matmul(a_tile, b_tile, out=product)
            if alpha != 1.0:
                product *= alpha
            c_tile += product
        finally:
            _release_scratch(base)

    with rt.lock:
        for i in range(c.mt):
            for j in range(c.nt):
                for k in range(a.nt):
                    a_tile = _lower_tile(a, i, k)
                    b_tile = b.tile(k, j)
                    a_handle = DataHandle(a_tile, name=f"A[{i},{k}]")
                    b_handle = DataHandle(b_tile, name=f"B[{k},{j}]")
                    rt.insert_task(
                        accumulate,
                        (c_handles[(i, j)], AccessMode.READWRITE),
                        (a_handle, AccessMode.READ),
                        (b_handle, AccessMode.READ),
                        name=f"gemm({i},{j},{k})",
                        cost=gemm_flops(*a_tile.shape, b_tile.shape[1]),
                        tag="gemm",
                    )
        rt.wait_all()
    return c


def tiled_lower_solve(l_factor: TileMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L x = rhs`` by tiled forward substitution.

    ``rhs`` may be a vector or a matrix of right-hand sides.  Used by tests
    to validate the tiled factor and by the MLE helper for quadratic forms.
    """
    from scipy.linalg import solve_triangular

    if l_factor.m != l_factor.n:
        raise ValueError("factor must be square")
    rhs = np.asarray(rhs, dtype=np.float64)
    vector = rhs.ndim == 1
    rhs2 = ensure_2d(rhs.reshape(-1, 1) if vector else rhs, "rhs").copy()
    if rhs2.shape[0] != l_factor.m:
        raise ValueError(f"rhs has {rhs2.shape[0]} rows, factor is {l_factor.m}x{l_factor.n}")
    ranges = l_factor.row_ranges
    for i in range(l_factor.mt):
        r0, r1 = ranges[i]
        for j in range(i):
            c0, c1 = ranges[j]
            rhs2[r0:r1] -= l_factor.tile(i, j) @ rhs2[c0:c1]
        rhs2[r0:r1] = solve_triangular(l_factor.tile(i, i), rhs2[r0:r1], lower=True, check_finite=False)
    return rhs2[:, 0] if vector else rhs2


def tiled_matvec(a: TileMatrix, x: np.ndarray, symmetric: bool | None = None) -> np.ndarray:
    """Tiled matrix-vector product ``A @ x``.

    ``symmetric`` defaults to the matrix's ``lower_only`` flag: lower-only
    matrices are treated as symmetric (mirror the stored triangle).
    """
    x = ensure_1d(x, "x")
    if x.shape[0] != a.n:
        raise ValueError(f"x has length {x.shape[0]}, matrix has {a.n} columns")
    symmetric = a.lower_only if symmetric is None else symmetric
    out = np.zeros(a.m)
    scratch = np.empty(max(r1 - r0 for r0, r1 in a.row_ranges))
    for i, (r0, r1) in enumerate(a.row_ranges):
        product = scratch[: r1 - r0]
        for j, (c0, c1) in enumerate(a.col_ranges):
            if a.lower_only and j > i:
                if symmetric:
                    np.dot(a.tile(j, i).T, x[c0:c1], out=product)
                    out[r0:r1] += product
                continue
            np.dot(a.tile(i, j), x[c0:c1], out=product)
            out[r0:r1] += product
    return out
