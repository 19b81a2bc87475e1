"""TLR Cholesky factorization.

The TLR variant of the tiled Cholesky keeps diagonal tiles dense and
compresses each off-diagonal tile once, after its last trailing update (the
update-before-compress ordering of block low-rank factorizations: Amestoy,
Buttari, L'Excellent & Mary, ACM TOMS 2019).  A strictly-lower tile stays
dense until its block column is reached:

* ``POTRF``  — dense Cholesky of the diagonal tile: the tiled Cholesky's
  own codelet (:func:`repro.tile.cholesky.tiled_cholesky`).
* ``TRSM``   — compress the fully updated tile ``A_ik ~ U Vᵀ``
  (:func:`~repro.tlr.compression.compress_tile` at the factor's ``accuracy``
  and ``max_rank``), then ``(U Vᵀ) L^{-T} = U (L^{-1} V)ᵀ``: only ``V`` is
  solved, at cost ``O(nb² k)``.
* ``SYRK``   — ``C -= U (Vᵀ V) Uᵀ``: cost ``O(nb² k + nb k²)``.
* ``GEMM``   — ``A_ij -= U_ik (V_ikᵀ V_jk) U_jkᵀ`` on the still-dense
  ``A_ij``: a rank ``min(k_ik, k_jk)`` product (the small core folded into
  the factor of the larger rank) subtracted by one ``nb x nb x k`` GEMM,
  with no QR and no SVD.

Compression thus runs as runtime tasks, and no tile is rounded again after
an update.  The price is memory while the factorization runs: the
strictly-lower tiles are held dense until they are compressed.

Each truncation is relative to the Schur-complement tile, not to the
original one, so the factor differs from a compress-first one by more than
roundoff: ranks grow somewhat, and the dropped parts no longer add up to an
indefinite matrix where they used to.  On a 45 x 45 exponential field
(range 0.234) in confidence-region order, 4 of 6 compress-first
factorizations at accuracy 1e-3 failed with a non-positive-definite
diagonal tile; all 6 succeed this way.

This is where the up-to-20x speedup of the paper comes from: when the
off-diagonal ranks are small (strong spatial correlation, loose accuracy),
the solves and the diagonal updates shrink from cubic to roughly linear in
the tile size.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from repro.runtime import AccessMode, DataHandle, Runtime
from repro.tile.cholesky import _gemm_inplace, _potrf_inplace
from repro.tile.layout import TileMatrix
from repro.tlr import compression
from repro.tlr.compression import LowRankTile
from repro.tlr.matrix import TLRMatrix
from repro.utils.timers import timed

__all__ = ["tlr_cholesky", "tlr_cholesky_flops"]


def _trsm_lowrank(panel: np.ndarray, diag: np.ndarray, accuracy: float, max_rank: int | None) -> LowRankTile:
    # compress the fully updated tile, then (U V^T) L^{-T} = U (L^{-1} V)^T:
    # solve only on the V factor
    tile = compression.compress_tile(panel, accuracy=accuracy, max_rank=max_rank)
    if tile.rank == 0:
        return tile
    return LowRankTile(tile.u, solve_triangular(diag, tile.v, lower=True, check_finite=False))


def _syrk_lowrank(diag: np.ndarray, panel: LowRankTile) -> None:
    if panel.rank == 0:
        return
    gram = panel.v.T @ panel.v
    diag -= panel.u @ gram @ panel.u.T
    # keep exact symmetry for the later dense POTRF
    diag += diag.T
    diag *= 0.5


def _gemm_lowrank(target: np.ndarray, left: LowRankTile, right: LowRankTile) -> None:
    if left.rank == 0 or right.rank == 0:
        return
    # left @ right^T = U_l (V_l^T V_r) U_r^T, kept at rank min(k_l, k_r) by
    # folding the core into the factor of the larger rank
    core = left.v.T @ right.v
    if left.rank <= right.rank:
        _gemm_inplace(target, left.u, right.u @ core.T)
    else:
        _gemm_inplace(target, left.u @ core, right.u)


def tlr_cholesky(
    matrix: TileMatrix | TLRMatrix,
    runtime: Runtime | None = None,
    overwrite: bool = False,
    accuracy: float = 1e-3,
    max_rank: int | None = None,
) -> TLRMatrix:
    """Cholesky factorization into a TLR factor.

    Parameters
    ----------
    matrix : TileMatrix or TLRMatrix
        Symmetric positive definite matrix; only its diagonal and
        strictly-lower tiles are read.  A :class:`TLRMatrix` input is
        expanded to dense tiles and factored the same way, at its own
        accuracy and rank cap.
    runtime : Runtime, optional
        Task runtime; defaults to serial execution.
    overwrite : bool
        Factor in place: a :class:`TLRMatrix` input is modified and
        returned, a :class:`TileMatrix` input's tiles are used as the
        workspace (their contents are destroyed).
    accuracy : float
        Relative accuracy each off-diagonal tile of the factor is compressed
        at (see :func:`~repro.tlr.compression.compress_tile`); a
        :class:`TLRMatrix` input carries its own.
    max_rank : int, optional
        Hard rank cap of the factor's off-diagonal tiles; a
        :class:`TLRMatrix` input carries its own.

    Returns
    -------
    TLRMatrix
        Lower-triangular factor: dense (lower-triangular) diagonal tiles and
        low-rank strictly-lower tiles.
    """
    rt = Runtime.ensure(runtime)
    # the diagonal and strictly-lower tiles as dense arrays the tasks may overwrite
    own = (lambda tile: tile) if overwrite else np.copy
    if isinstance(matrix, TLRMatrix):
        out = matrix if overwrite else TLRMatrix(matrix.n, matrix.tile_size, matrix.accuracy, matrix.max_rank)
        diagonal = {i: own(tile) for i, tile in matrix.diagonal.items()}
        lower = {key: tile.to_dense() for key, tile in matrix.offdiag.items()}
    else:
        if matrix.m != matrix.n:
            raise ValueError("Cholesky factorization requires a square matrix")
        out = TLRMatrix(matrix.n, matrix.tile_size, accuracy, max_rank)
        diagonal = {i: own(matrix.tile(i, i)) for i in range(matrix.mt)}
        lower = {(i, j): own(matrix.tile(i, j)) for i in range(matrix.mt) for j in range(i)}
    nt = out.nt

    diag_handles = {i: DataHandle(tile, name=f"D[{i}]", home=i) for i, tile in diagonal.items()}
    off_handles = {key: DataHandle(tile, name=f"LR[{key[0]},{key[1]}]", home=sum(key)) for key, tile in lower.items()}

    with rt.lock, timed("tlr_cholesky"):
        for k in range(nt):
            rt.insert_task(
                _potrf_inplace,
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
                    kwargs={"accuracy": out.accuracy, "max_rank": out.max_rank},
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
                        name=f"tlr_gemm({i},{j},{k})",
                        priority=3 * (nt - k),
                        tag="gemm",
                    )
        rt.wait_all()

    # TRSM tasks replace their handle's dense tile with the compressed
    # factor tile; the dense diagonal tiles were factored in place
    out.offdiag = {key: handle.get() for key, handle in off_handles.items()}
    out.diagonal = {i: handle.get() for i, handle in diag_handles.items()}
    return out


def tlr_cholesky_flops(n: int, tile_size: int, mean_rank: float) -> float:
    """Leading-order flop model of the TLR Cholesky.

    ``nt`` dense panel factorizations plus TRSM/SYRK/GEMM updates whose cost
    scales with the mean off-diagonal rank ``k``:

    .. math::

        nt \\cdot \\frac{nb^3}{3}
        + \\binom{nt}{2} (nb^2 k)
        + \\binom{nt}{2} (2 nb^2 k + 2 nb k^2)
        + \\binom{nt}{3} (6 nb k^2)

    It models the recompressing TLR Cholesky of HiCMA, whose GEMM updates
    stay low rank; the absolute constant matters less than the scaling,
    and the distributed performance model uses this to predict TLR node
    times.
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
