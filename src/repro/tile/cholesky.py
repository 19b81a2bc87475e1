"""Tiled Cholesky factorization (right-looking variant).

This is the parallel POTRF of the paper (step (a) of Algorithms 1/2):

.. code-block:: text

    for k in 0 .. nt-1:
        POTRF  L[k,k]   <- chol(A[k,k])                       (panel, critical path)
        for i in k+1 .. nt-1:
            TRSM   A[i,k] <- A[i,k] L[k,k]^{-T}
        for i in k+1 .. nt-1:
            SYRK   A[i,i] <- A[i,i] - A[i,k] A[i,k]^T
            for j in k+1 .. i-1:
                GEMM A[i,j] <- A[i,j] - A[i,k] A[j,k]^T

Every tile operation is submitted as a runtime task; dependencies are
inferred automatically from the tile data handles (sequential task flow), so
independent TRSM/GEMM updates of different tiles overlap across worker
threads exactly like the Chameleon implementation overlaps them across
cores.  Panel factorizations get higher priority to keep the critical path
moving — the same heuristic Chameleon applies.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky as scipy_cholesky
from scipy.linalg import solve_triangular

from repro.runtime import AccessMode, DataHandle, Runtime
from repro.tile.dense_kernels import gemm_flops, potrf_flops, syrk_flops, trsm_flops
from repro.tile.layout import TileMatrix
from repro.utils.timers import timed

__all__ = ["tiled_cholesky", "cholesky_flops"]


def cholesky_flops(n: int) -> float:
    """Leading-order flop count of an ``n x n`` Cholesky factorization."""
    return n ** 3 / 3.0


def _potrf_inplace(tile: np.ndarray) -> None:
    try:
        factor = scipy_cholesky(tile, lower=True, check_finite=False)
    except Exception as exc:
        raise np.linalg.LinAlgError(f"diagonal tile is not positive definite: {exc}") from exc
    tile[:] = factor


def _trsm_inplace(panel: np.ndarray, diag: np.ndarray) -> None:
    panel[:] = solve_triangular(diag, panel.T, lower=True, check_finite=False).T


def _syrk_inplace(diag: np.ndarray, panel: np.ndarray) -> None:
    diag -= panel @ panel.T


def _gemm_inplace(target: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    target -= a @ b.T


def tiled_cholesky(
    matrix: TileMatrix,
    runtime: Runtime | None = None,
    overwrite: bool = False,
) -> TileMatrix:
    """Cholesky factorization of a symmetric positive definite tile matrix.

    Parameters
    ----------
    matrix : TileMatrix
        The covariance matrix.  Only the lower triangle of each diagonal tile
        and the tiles with ``i >= j`` are referenced, so both full and
        ``lower_only`` layouts are accepted.
    runtime : Runtime, optional
        Task runtime.  Defaults to a serial runtime, which executes the same
        task graph deterministically on one worker.
    overwrite : bool
        Factor in place (the input tiles are replaced by the factor).  With
        the default the input matrix is copied first.

    Returns
    -------
    TileMatrix
        Lower-triangular Cholesky factor in ``lower_only`` layout.
    """
    if matrix.m != matrix.n:
        raise ValueError("Cholesky factorization requires a square matrix")
    rt = Runtime.ensure(runtime)

    # Build (or reuse) the lower-triangular working copy.
    if matrix.lower_only and overwrite:
        work = matrix
    else:
        work = TileMatrix(matrix.m, matrix.n, matrix.tile_size, lower_only=True)
        for i in range(matrix.mt):
            for j in range(i + 1):
                src = matrix.tile(i, j)
                work.set_tile(i, j, src if overwrite else src.copy())

    nt = work.mt
    nb = work.tile_size
    handles: dict[tuple[int, int], DataHandle] = {
        (i, j): DataHandle(work.tile(i, j), name=f"L[{i},{j}]", home=(i + j))
        for i in range(nt)
        for j in range(i + 1)
    }

    with rt.lock, timed("cholesky"):
        for k in range(nt):
            rt.insert_task(
                _potrf_inplace,
                (handles[(k, k)], AccessMode.READWRITE),
                name=f"potrf({k})",
                priority=3 * (nt - k) + 3,
                cost=potrf_flops(nb),
                tag="potrf",
            )
            for i in range(k + 1, nt):
                rt.insert_task(
                    _trsm_inplace,
                    (handles[(i, k)], AccessMode.READWRITE),
                    (handles[(k, k)], AccessMode.READ),
                    name=f"trsm({i},{k})",
                    priority=3 * (nt - k) + 2,
                    cost=trsm_flops(nb, nb),
                    tag="trsm",
                )
            for i in range(k + 1, nt):
                rt.insert_task(
                    _syrk_inplace,
                    (handles[(i, i)], AccessMode.READWRITE),
                    (handles[(i, k)], AccessMode.READ),
                    name=f"syrk({i},{k})",
                    priority=3 * (nt - k) + 1,
                    cost=syrk_flops(nb, nb),
                    tag="syrk",
                )
                for j in range(k + 1, i):
                    rt.insert_task(
                        _gemm_inplace,
                        (handles[(i, j)], AccessMode.READWRITE),
                        (handles[(i, k)], AccessMode.READ),
                        (handles[(j, k)], AccessMode.READ),
                        name=f"gemm({i},{j},{k})",
                        priority=3 * (nt - k),
                        cost=gemm_flops(nb, nb, nb),
                        tag="gemm",
                    )
        rt.wait_all()

    # Zero the strict upper triangle of diagonal tiles so to_dense() gives a
    # clean lower-triangular factor.
    for k in range(nt):
        tile = work.tile(k, k)
        tile[:] = np.tril(tile)
    return work
