"""Low-rank tile compression and arithmetic.

A :class:`LowRankTile` stores an ``m x n`` tile as ``U @ V.T`` with
``U`` of shape ``(m, k)`` and ``V`` of shape ``(n, k)`` — the HiCMA storage
convention.  Compression truncates at relative accuracy ``eps``, the knob
the paper sweeps (1e-1 ... 1e-4): the spectral-norm error is at most
``(1 + g) * eps * sigma_1`` (``g =`` :data:`QB_SLACK`), and the rank is the
exact truncated SVD's unless a singular value lies within
``g * eps * sigma_1`` of ``eps * sigma_1``.  Its cost grows with the tile's
rank: a randomized QB factorization with an exact error indicator (Yu, Gu &
Li 2018) finds the range in :data:`QB_BLOCK`-column steps, and only the
small projected matrix gets an exact SVD.

:func:`recompress` rounds a low-rank tile back to the target accuracy through
Householder QRs of its factors and a small SVD, applying the reflectors only
to the kept columns — the standard rounding procedure; the online rank-k
updates of a TLR factor (:mod:`repro.core.update`) use it to keep ranks
bounded.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack as _lapack

from repro.utils.validation import check_accuracy

__all__ = [
    "QB_BLOCK",
    "QB_SLACK",
    "LowRankTile",
    "compress_tile",
    "recompress",
    "lowrank_matmul_dense",
]

#: columns the range basis of :func:`compress_tile` grows by per step
QB_BLOCK = 16
#: share ``g`` of the truncation threshold the range basis may leave out:
#: ``||A - Q Q^T A||_2 <= g * eps * sigma_1``
QB_SLACK = 0.1
#: roundoff of the error indicator of an ``m x n`` tile, in units of
#: ``sqrt(m n) * ||A||_F^2``: once the range is captured the indicator reads
#: at most 0.13 of it on covariance tiles of 128 and 512 columns, so a
#: threshold below it cannot be resolved
_UNRESOLVED = float(np.finfo(np.float64).eps)
_SKETCH_SEED = 20180207
#: LAPACK workspace per column: enough for the blocked Householder kernels
_LWORK_PER_COLUMN = 64


@dataclass
class LowRankTile:
    """A tile stored in factored form ``U @ V.T``.

    Attributes
    ----------
    u : ndarray, shape (m, k)
    v : ndarray, shape (n, k)
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.u = np.ascontiguousarray(self.u, dtype=np.float64)
        self.v = np.ascontiguousarray(self.v, dtype=np.float64)
        if self.u.ndim != 2 or self.v.ndim != 2:
            raise ValueError("U and V must be two-dimensional")
        if self.u.shape[1] != self.v.shape[1]:
            raise ValueError(f"rank mismatch: U has {self.u.shape[1]} columns, V has {self.v.shape[1]}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    def to_dense(self) -> np.ndarray:
        if self.rank == 0:
            return np.zeros(self.shape)
        return self.u @ self.v.T

    def transpose(self) -> "LowRankTile":
        return LowRankTile(self.v.copy(), self.u.copy())

    def memory_bytes(self) -> int:
        return self.u.nbytes + self.v.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LowRankTile(shape={self.shape}, rank={self.rank})"


def _truncate_svd(u: np.ndarray, s: np.ndarray, vt: np.ndarray, accuracy: float, max_rank: int | None) -> LowRankTile:
    if s.size == 0 or s[0] <= 0.0:
        m, n = u.shape[0], vt.shape[1]
        return LowRankTile(np.zeros((m, 0)), np.zeros((n, 0)))
    threshold = accuracy * s[0]
    rank = int(np.sum(s > threshold))
    rank = max(rank, 1)
    if max_rank is not None:
        rank = min(rank, int(max_rank))
    scaled_u = u[:, :rank] * s[:rank]
    return LowRankTile(scaled_u, vt[:rank, :].T.copy())


@functools.lru_cache(maxsize=256)
def _sketch_block(width: int, block: int) -> np.ndarray:
    """Gaussian test block ``block`` for tiles of ``width`` columns.

    Each block has its own seed, so a tile's sketch never depends on which
    tiles were compressed before it.  Read-only: every caller shares it.
    """
    omega = np.random.default_rng((_SKETCH_SEED, width, block)).standard_normal((width, QB_BLOCK))
    omega.flags.writeable = False
    return omega


def _householder(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``dgeqrf`` of ``a``: R on and above the diagonal, reflectors below it."""
    qr, tau, _, _ = _lapack.dgeqrf(a, lwork=_LWORK_PER_COLUMN * max(1, a.shape[1]))
    return qr, tau


def _range_basis(tile: np.ndarray, total: float, accuracy: float, limit: int) -> tuple[np.ndarray, np.ndarray] | None:
    """``(Q^T, Q^T A)`` grown until the error indicator certifies ``Q``.

    ``None`` when the indicator's threshold lies below its roundoff: the
    basis would then have to grow to the whole space.
    """
    m, n = tile.shape
    floor = _UNRESOLVED * np.sqrt(m * n) * total
    basis_t = np.empty((limit, m))  # one basis vector per row
    rows = np.empty((limit, n))
    k, captured, row_max = 0, 0.0, 0.0
    while k < limit:
        width = min(QB_BLOCK, limit - k)
        q = tile @ _sketch_block(n, k // QB_BLOCK)[:, :width]
        prev = basis_t[:k]
        # block Gram-Schmidt twice: one pass leaves components along Q
        # behind when the block lies almost inside its span
        for _ in range(2 if k else 1):
            q -= prev.T @ (prev @ q)
            q, _, _ = _lapack.dorgqr(*_householder(q))
        block_rows = q.T @ tile
        basis_t[k:k + width] = q.T
        rows[k:k + width] = block_rows
        k += width
        row_norms = np.einsum("ij,ij->i", block_rows, block_rows)
        captured += float(row_norms.sum())
        row_max = max(row_max, float(row_norms.max()))
        threshold = (QB_SLACK * accuracy) ** 2 * row_max
        if threshold <= floor:
            return None
        if total - captured <= threshold:
            break
    return basis_t[:k], rows[:k]


def compress_tile(tile: np.ndarray, accuracy: float = 1e-3, max_rank: int | None = None) -> LowRankTile:
    """Compress a dense tile at relative spectral accuracy ``accuracy``.

    Grows an orthonormal basis ``Q`` of the tile's range from
    :data:`QB_BLOCK`-column blocks of ``A @ Omega`` until the exact error
    indicator ``||A||_F^2 - ||Q^T A||_F^2 = ||A - Q Q^T A||_F^2`` is at most
    ``(QB_SLACK * accuracy * s)^2``, where ``s <= sigma_1`` is the largest
    row norm of ``Q^T A``; then truncates an exact SVD of the small
    ``Q^T A``.  The result satisfies
    ``||A - U V^T||_2 <= (1 + QB_SLACK) * accuracy * sigma_1``, and the work
    grows with the tile's rank rather than its size.  Where that threshold
    is below the indicator's roundoff (``accuracy`` of about 1e-6 and
    tighter) the basis is the whole space: the tile's own SVD is truncated.

    Parameters
    ----------
    tile : ndarray
        Dense tile.
    accuracy : float
        Relative spectral accuracy: singular values below ``accuracy``
        times the largest are discarded (at least rank 1 is kept so the
        tile shape information survives).
    max_rank : int, optional
        Hard cap on the rank (the paper caps the wind experiment at 145);
        the basis then stops growing at ``max_rank + QB_BLOCK`` columns.
    """
    tile = np.ascontiguousarray(tile, dtype=np.float64)
    if tile.ndim != 2:
        raise ValueError("tile must be two-dimensional")
    check_accuracy(accuracy)
    m, n = tile.shape
    total = float(np.vdot(tile, tile))
    if not total > 0.0:
        return LowRankTile(np.zeros((m, 0)), np.zeros((n, 0)))
    limit = min(m, n) if max_rank is None else min(m, n, int(max_rank) + QB_BLOCK)
    qb = _range_basis(tile, total, accuracy, limit)
    if qb is None:
        u, s, vt = np.linalg.svd(tile, full_matrices=False)
    else:
        basis_t, rows = qb
        u, s, vt = np.linalg.svd(rows, full_matrices=False)
        u = basis_t.T @ u
    return _truncate_svd(u, s, vt, accuracy, max_rank)


def _apply_reflectors(qr: np.ndarray, tau: np.ndarray, top: np.ndarray) -> np.ndarray:
    """``Q @ [top; 0]`` with ``Q`` held as the Householder reflectors of ``dgeqrf``."""
    c = np.zeros((qr.shape[0], top.shape[1]), order="F")
    c[: top.shape[0]] = top
    lwork = _LWORK_PER_COLUMN * max(1, c.shape[1])
    out, _, _ = _lapack.dormqr(b"L", b"N", qr[:, : tau.size], tau, c, lwork, overwrite_c=1)
    return out


def recompress(tile: LowRankTile, accuracy: float, max_rank: int | None = None) -> LowRankTile:
    """Round a low-rank tile back to ``accuracy`` (QR + small SVD).

    This is the rounding step applied after a low-rank addition, so ranks do
    not grow unboundedly across rank-k updates of a TLR factor.  The
    Householder QRs of ``U`` and ``V`` never form their ``Q``: the reflectors
    are applied only to the ``r`` columns the truncation keeps.
    """
    if tile.rank == 0:
        return tile
    qu, tau_u = _householder(tile.u)
    qv, tau_v = _householder(tile.v)
    ru = np.triu(qu[: tau_u.size])
    rv = np.triu(qv[: tau_v.size])
    u, s, vt = np.linalg.svd(ru @ rv.T, full_matrices=False)
    core = _truncate_svd(u, s, vt, accuracy, max_rank)
    if core.rank == 0:
        return LowRankTile(np.zeros((tile.shape[0], 0)), np.zeros((tile.shape[1], 0)))
    return LowRankTile(_apply_reflectors(qu, tau_u, core.u), _apply_reflectors(qv, tau_v, core.v))


def lowrank_matmul_dense(tile: LowRankTile, dense: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply a low-rank tile to a dense block: ``(U V^T) @ dense``.

    Cost ``O((m + n) k p)`` instead of ``O(m n p)`` — this is the saving the
    TLR factor brings to the PMVN limit-propagation GEMMs.  With ``out=``
    the final (large) product is written into the caller's buffer; only the
    small rank-sized intermediate ``V^T @ dense`` is allocated.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if dense.shape[0] != tile.shape[1]:
        raise ValueError(f"dense block has {dense.shape[0]} rows, tile has {tile.shape[1]} columns")
    if tile.rank == 0:
        if out is not None:
            out[...] = 0.0
            return out
        return np.zeros((tile.shape[0],) + dense.shape[1:])
    if out is not None:
        return np.matmul(tile.u, tile.v.T @ dense, out=out)
    return tile.u @ (tile.v.T @ dense)
