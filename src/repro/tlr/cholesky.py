"""TLR Cholesky factorization.

The TLR variant of the tiled Cholesky keeps diagonal tiles dense and
off-diagonal tiles in ``U Vᵀ`` form throughout the factorization:

* ``POTRF``  — dense Cholesky of the diagonal tile (unchanged).
* ``TRSM``   — ``(U Vᵀ) L^{-T} = U (L^{-1} V)ᵀ``: only the ``V`` factor is
  touched, at cost ``O(nb² k)`` instead of ``O(nb³)``.
* ``SYRK``   — ``C -= U (Vᵀ V) Uᵀ``: cost ``O(nb² k + nb k²)``.
* ``GEMM``   — ``A_ij -= U_ik (V_ikᵀ V_jk) U_jkᵀ`` is itself low rank; it is
  added to the low-rank ``A_ij`` and the result is rounded back to the target
  accuracy.

This is where the up-to-20x speedup of the paper comes from: when the
off-diagonal ranks are small (strong spatial correlation, loose accuracy),
the trailing updates shrink from cubic to roughly linear in the tile size.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky as scipy_cholesky
from scipy.linalg import solve_triangular

from repro.runtime import AccessMode, DataHandle, Runtime
from repro.tlr.compression import LowRankTile, lowrank_add
from repro.tlr.matrix import TLRMatrix
from repro.utils.timers import timed

__all__ = ["tlr_cholesky", "tlr_cholesky_flops"]


def _potrf_dense(tile: np.ndarray) -> None:
    try:
        factor = scipy_cholesky(tile, lower=True, check_finite=False)
    except Exception as exc:
        raise np.linalg.LinAlgError(f"diagonal tile is not positive definite: {exc}") from exc
    tile[:] = np.tril(factor)


def _trsm_lowrank(panel: LowRankTile, diag: np.ndarray) -> LowRankTile:
    # (U V^T) L^{-T} = U (L^{-1} V)^T : solve only on the V factor
    if panel.rank == 0:
        return panel
    new_v = solve_triangular(diag, panel.v, lower=True, check_finite=False)
    return LowRankTile(panel.u, np.ascontiguousarray(new_v))


def _syrk_lowrank(diag: np.ndarray, panel: LowRankTile) -> None:
    if panel.rank == 0:
        return
    gram = panel.v.T @ panel.v
    diag -= panel.u @ gram @ panel.u.T
    # keep exact symmetry for the later dense POTRF
    diag += diag.T
    diag *= 0.5


def _gemm_lowrank(target: LowRankTile, left: LowRankTile, right: LowRankTile, accuracy: float, max_rank: int | None) -> LowRankTile:
    if left.rank == 0 or right.rank == 0:
        return target
    # left @ right^T = U_l (V_l^T V_r) U_r^T
    core = left.v.T @ right.v
    update = LowRankTile(left.u @ core, right.u.copy())
    return lowrank_add(target, update, alpha=-1.0, accuracy=accuracy, max_rank=max_rank)


def tlr_cholesky(
    matrix: TLRMatrix,
    runtime: Runtime | None = None,
    overwrite: bool = False,
) -> TLRMatrix:
    """Cholesky factorization of a TLR matrix, returning a TLR factor.

    Parameters
    ----------
    matrix : TLRMatrix
        Symmetric positive definite matrix in TLR format.
    runtime : Runtime, optional
        Task runtime; defaults to serial execution.
    overwrite : bool
        Factor in place (the input container is modified and returned).

    Returns
    -------
    TLRMatrix
        Lower-triangular factor: dense (lower-triangular) diagonal tiles and
        low-rank strictly-lower tiles.
    """
    rt = Runtime.ensure(runtime)
    work = matrix if overwrite else matrix.copy()
    nt = work.nt
    accuracy = work.accuracy
    max_rank = work.max_rank

    diag_handles = {i: DataHandle(work.diagonal[i], name=f"D[{i}]", home=i) for i in range(nt)}
    off_handles = {
        key: DataHandle(tile, name=f"LR[{key[0]},{key[1]}]", home=sum(key)) for key, tile in work.offdiag.items()
    }

    with rt.lock, timed("tlr_cholesky"):
        for k in range(nt):
            rt.insert_task(
                _potrf_dense,
                (diag_handles[k], AccessMode.READWRITE),
                name=f"tlr_potrf({k})",
                priority=3 * (nt - k) + 3,
                tag="potrf",
            )
            for i in range(k + 1, nt):
                rt.insert_task(
                    _trsm_lowrank,
                    (off_handles[(i, k)], AccessMode.READWRITE),
                    (diag_handles[k], AccessMode.READ),
                    name=f"tlr_trsm({i},{k})",
                    priority=3 * (nt - k) + 2,
                    tag="trsm",
                )
            for i in range(k + 1, nt):
                rt.insert_task(
                    _syrk_lowrank,
                    (diag_handles[i], AccessMode.READWRITE),
                    (off_handles[(i, k)], AccessMode.READ),
                    name=f"tlr_syrk({i},{k})",
                    priority=3 * (nt - k) + 1,
                    tag="syrk",
                )
                for j in range(k + 1, i):
                    rt.insert_task(
                        _gemm_lowrank,
                        (off_handles[(i, j)], AccessMode.READWRITE),
                        (off_handles[(i, k)], AccessMode.READ),
                        (off_handles[(j, k)], AccessMode.READ),
                        kwargs={"accuracy": accuracy, "max_rank": max_rank},
                        name=f"tlr_gemm({i},{j},{k})",
                        priority=3 * (nt - k),
                        tag="gemm",
                    )
        rt.wait_all()

    # write task outputs back into the container (TRSM/GEMM tasks replace the
    # LowRankTile payload of their handle; dense diagonal tiles were mutated
    # in place)
    for key, handle in off_handles.items():
        work.offdiag[key] = handle.get()
    for i, handle in diag_handles.items():
        work.diagonal[i] = handle.get()
    return work


def tlr_cholesky_flops(n: int, tile_size: int, mean_rank: float) -> float:
    """Leading-order flop model of the TLR Cholesky.

    ``nt`` dense panel factorizations plus TRSM/SYRK/GEMM updates whose cost
    scales with the mean off-diagonal rank ``k``:

    .. math::

        nt \\cdot \\frac{nb^3}{3}
        + \\binom{nt}{2} (nb^2 k)
        + \\binom{nt}{2} (2 nb^2 k + 2 nb k^2)
        + \\binom{nt}{3} (6 nb k^2)

    The absolute constant matters less than the scaling; the distributed
    performance model uses this to predict TLR node times.
    """
    nt = (n + tile_size - 1) // tile_size
    nb = float(tile_size)
    k = float(mean_rank)
    pairs = nt * (nt - 1) / 2.0
    triples = nt * (nt - 1) * (nt - 2) / 6.0
    return (
        nt * nb ** 3 / 3.0
        + pairs * nb * nb * k
        + pairs * (2.0 * nb * nb * k + 2.0 * nb * k * k)
        + triples * 6.0 * nb * k * k
    )
