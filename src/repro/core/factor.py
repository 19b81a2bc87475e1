"""Cholesky factor adapters used by the PMVN sweep.

Algorithm 2 needs two things from the factor ``L``:

* the dense diagonal tiles ``L[r, r]`` (consumed by the QMC kernel), and
* the action of the off-diagonal tiles on a block of chains,
  ``L[j, r] @ Y[r, :]`` (the limit-propagation GEMM).

The dense and TLR factors provide these through a common interface so the
integration sweep is written once.  For the TLR factor the off-diagonal
action costs ``O((m + n) k p)`` instead of ``O(m n p)``.
"""

from __future__ import annotations

import numpy as np

from repro.runtime import Runtime
from repro.tile.cholesky import tiled_cholesky
from repro.tile.layout import TileMatrix
from repro.tlr.compression import lowrank_matmul_dense
from repro.tlr.cholesky import tlr_cholesky
from repro.tlr.matrix import TLRMatrix
from repro.utils.timers import timed
from repro.utils.validation import check_covariance, check_positive_int

__all__ = ["CholeskyFactor", "DenseTileFactor", "TLRFactor", "default_tile_size", "factorize"]


class CholeskyFactor:
    """Common interface over dense-tile and TLR Cholesky factors."""

    #: half-open row ranges of the tile blocks
    row_ranges: list[tuple[int, int]]

    @property
    def n(self) -> int:
        raise NotImplementedError

    @property
    def n_blocks(self) -> int:
        return len(self.row_ranges)

    @property
    def tile_size(self) -> int:
        raise NotImplementedError

    def diag_tile(self, r: int) -> np.ndarray:
        """Dense lower-triangular diagonal tile ``L[r, r]``."""
        raise NotImplementedError

    def apply_offdiag(self, j: int, r: int, y_block: np.ndarray) -> np.ndarray:
        """Return ``L[j, r] @ y_block`` for an off-diagonal tile (``j > r``)."""
        raise NotImplementedError

    def apply_offdiag_into(self, j: int, r: int, y_block: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write ``L[j, r] @ y_block`` into ``out`` without allocating the result.

        The allocation-free variant used by the PMVN limit-propagation tasks:
        ``out`` must have the product's shape and dtype float64.  Subclasses
        override this with a true ``out=`` GEMM; the base implementation
        falls back to copying the allocating product.
        """
        np.copyto(out, self.apply_offdiag(j, r, y_block))
        return out

    def to_dense(self) -> np.ndarray:
        """Assemble the dense lower-triangular factor (testing only)."""
        raise NotImplementedError


class DenseTileFactor(CholeskyFactor):
    """Adapter over a dense :class:`~repro.tile.layout.TileMatrix` factor."""

    def __init__(self, tiles: TileMatrix) -> None:
        if tiles.m != tiles.n:
            raise ValueError("Cholesky factor must be square")
        self.tiles = tiles
        self.row_ranges = list(tiles.row_ranges)

    @property
    def n(self) -> int:
        return self.tiles.n

    @property
    def tile_size(self) -> int:
        return self.tiles.tile_size

    def diag_tile(self, r: int) -> np.ndarray:
        return self.tiles.tile(r, r)

    def apply_offdiag(self, j: int, r: int, y_block: np.ndarray) -> np.ndarray:
        if j <= r:
            raise ValueError("apply_offdiag expects a strictly-lower tile (j > r)")
        return self.tiles.tile(j, r) @ y_block

    def apply_offdiag_into(self, j: int, r: int, y_block: np.ndarray, out: np.ndarray) -> np.ndarray:
        if j <= r:
            raise ValueError("apply_offdiag expects a strictly-lower tile (j > r)")
        return np.matmul(self.tiles.tile(j, r), y_block, out=out)

    def to_dense(self) -> np.ndarray:
        return self.tiles.to_dense()


class TLRFactor(CholeskyFactor):
    """Adapter over a :class:`~repro.tlr.matrix.TLRMatrix` factor."""

    def __init__(self, tlr: TLRMatrix) -> None:
        self.tlr = tlr
        self.row_ranges = list(tlr.ranges)

    @property
    def n(self) -> int:
        return self.tlr.n

    @property
    def tile_size(self) -> int:
        return self.tlr.tile_size

    def diag_tile(self, r: int) -> np.ndarray:
        return self.tlr.diagonal[r]

    def apply_offdiag(self, j: int, r: int, y_block: np.ndarray) -> np.ndarray:
        if j <= r:
            raise ValueError("apply_offdiag expects a strictly-lower tile (j > r)")
        return lowrank_matmul_dense(self.tlr.offdiag[(j, r)], y_block)

    def apply_offdiag_into(self, j: int, r: int, y_block: np.ndarray, out: np.ndarray) -> np.ndarray:
        if j <= r:
            raise ValueError("apply_offdiag expects a strictly-lower tile (j > r)")
        return lowrank_matmul_dense(self.tlr.offdiag[(j, r)], y_block, out=out)

    def to_dense(self) -> np.ndarray:
        return self.tlr.to_lower_dense()


def _apply_precision(array: np.ndarray, precision: str) -> np.ndarray:
    """Round an array through the requested storage precision.

    ``"single"`` emulates the paper's future-work mixed-precision execution:
    the factorization operates on data rounded to float32 (so the accuracy
    impact is faithful), while the arithmetic itself stays in float64 — this
    reproduction cannot claim the speed benefit, only quantify the accuracy
    cost (see the precision ablation in ``benchmarks/bench_ablation_design.py``).
    """
    if precision == "double":
        return array
    if precision in ("single", "float32", "fp32"):
        return np.asarray(array, dtype=np.float32).astype(np.float64)
    if precision in ("half", "float16", "fp16"):
        return np.asarray(array, dtype=np.float16).astype(np.float64)
    raise ValueError(f"unknown precision {precision!r}; use 'double', 'single' or 'half'")


def default_tile_size(n: int, tile_size: int | None = None) -> int:
    """The tile extent :func:`factorize` uses for an ``n x n`` matrix.

    ``tile_size`` when given, else roughly ``n / 8`` clamped to [64, 512]
    (the heuristic the paper's settings, tile 320-980, correspond to at
    scale); never more than ``n``.
    """
    if tile_size is None:
        tile_size = min(512, max(64, n // 8))
    return min(tile_size, n)


def factorize(
    sigma: np.ndarray,
    method: str = "dense",
    tile_size: int | None = None,
    accuracy: float = 1e-3,
    max_rank: int | None = None,
    runtime: Runtime | None = None,
    precision: str = "double",
    compression: str = "svd",
) -> CholeskyFactor:
    """Factor a covariance matrix and wrap it in the PMVN adapter.

    Parameters
    ----------
    sigma : ndarray (n, n)
        Symmetric positive definite covariance matrix.
    method : {"dense", "tlr"}
        Dense tiled Cholesky or TLR Cholesky at the requested ``accuracy``.
    tile_size : int, optional
        Tile extent; defaults to :func:`default_tile_size`.
    accuracy : float
        TLR compression accuracy (ignored for the dense method).
    max_rank : int, optional
        Optional hard rank cap for the TLR tiles.
    runtime : Runtime, optional
        Task runtime used for the factorization tasks.
    precision : {"double", "single", "half"}
        Storage precision emulation for the factorization inputs and outputs
        (the paper's future-work direction); ``"double"`` is exact.
    compression : {"svd", "rsvd"}
        Per-tile compression algorithm for the TLR method (exact truncated
        SVD, or the cheaper randomized range finder).
    """
    sigma = check_covariance(sigma, "covariance")
    sigma = _apply_precision(sigma, precision)
    tile_size = check_positive_int(default_tile_size(sigma.shape[0], tile_size), "tile_size")
    method = method.lower()
    if method == "dense":
        tiles = TileMatrix.from_dense(sigma, tile_size, lower_only=True)
        with timed("factorization"):
            factor = tiled_cholesky(tiles, runtime=runtime, overwrite=True)
        if precision != "double":
            for i, j, tile in factor.tiles():
                factor.set_tile(i, j, _apply_precision(tile, precision))
        return DenseTileFactor(factor)
    if method == "tlr":
        with timed("compression"):
            tlr = TLRMatrix.from_dense(
                sigma, tile_size, accuracy=accuracy, max_rank=max_rank, method=compression
            )
        with timed("factorization"):
            factor = tlr_cholesky(tlr, runtime=runtime, overwrite=True)
        if precision != "double":
            for i in list(factor.diagonal):
                factor.diagonal[i] = _apply_precision(factor.diagonal[i], precision)
            for key, tile in list(factor.offdiag.items()):
                factor.offdiag[key] = type(tile)(
                    _apply_precision(tile.u, precision), _apply_precision(tile.v, precision)
                )
        return TLRFactor(factor)
    raise ValueError(f"unknown factorization method {method!r}; use 'dense' or 'tlr'")
