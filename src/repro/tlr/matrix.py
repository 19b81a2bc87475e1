"""TLR matrix container.

A :class:`TLRMatrix` stores a symmetric matrix (or its Cholesky factor) with

* dense diagonal tiles, and
* low-rank off-diagonal tiles in the lower triangle (``i > j``),

which is exactly the HiCMA storage the paper uses.  Construction either
compresses an existing :class:`~repro.tile.layout.TileMatrix` / dense array,
or generates tiles on the fly from a covariance kernel so the dense matrix is
never materialized.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.builder import build_covariance_tile
from repro.kernels.covariance import CovarianceKernel
from repro.tile.layout import TileMatrix, tile_ranges
from repro.tlr.compression import LowRankTile, compress_tile
from repro.utils.validation import check_accuracy, check_positive_int, check_square, ensure_2d

__all__ = ["TLRMatrix"]


class TLRMatrix:
    """Symmetric matrix in Tile Low-Rank format (dense diagonal, U Vᵀ off-diagonal)."""

    def __init__(self, n: int, tile_size: int, accuracy: float = 1e-3, max_rank: int | None = None) -> None:
        self.n = check_positive_int(n, "n")
        self.tile_size = check_positive_int(tile_size, "tile_size")
        self.accuracy = check_accuracy(accuracy)
        self.max_rank = int(max_rank) if max_rank is not None else None
        self.ranges = tile_ranges(self.n, self.tile_size)
        self.diagonal: dict[int, np.ndarray] = {}
        self.offdiag: dict[tuple[int, int], LowRankTile] = {}

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        tile_size: int,
        accuracy: float = 1e-3,
        max_rank: int | None = None,
    ) -> "TLRMatrix":
        """Compress a dense symmetric matrix into TLR format."""
        dense = check_square(dense, "matrix")
        out = cls(dense.shape[0], tile_size, accuracy, max_rank)
        for i, (r0, r1) in enumerate(out.ranges):
            # copy so that in-place factorizations never touch the caller's matrix
            out.diagonal[i] = dense[r0:r1, r0:r1].copy()
            for j, (c0, c1) in enumerate(out.ranges[:i]):
                out.offdiag[(i, j)] = compress_tile(dense[r0:r1, c0:c1], accuracy=accuracy, max_rank=max_rank)
        return out

    @classmethod
    def from_tile_matrix(
        cls,
        tiles: TileMatrix,
        accuracy: float = 1e-3,
        max_rank: int | None = None,
    ) -> "TLRMatrix":
        """Compress an existing tile matrix (lower triangle) into TLR format."""
        if tiles.m != tiles.n:
            raise ValueError("TLR compression expects a square matrix")
        out = cls(tiles.n, tiles.tile_size, accuracy, max_rank)
        for i in range(tiles.mt):
            out.diagonal[i] = tiles.tile(i, i).copy()
            for j in range(i):
                out.offdiag[(i, j)] = compress_tile(tiles.tile(i, j), accuracy=accuracy, max_rank=max_rank)
        return out

    @classmethod
    def from_kernel(
        cls,
        kernel: CovarianceKernel,
        locations: np.ndarray,
        tile_size: int,
        accuracy: float = 1e-3,
        max_rank: int | None = None,
        nugget: float = 0.0,
    ) -> "TLRMatrix":
        """Generate-and-compress a covariance matrix tile by tile.

        This is the ``pmvn_init`` path of Algorithm 1: the covariance matrix
        is assembled directly in compressed form, so peak memory is the TLR
        footprint rather than the dense ``O(n^2)``.
        """
        locations = ensure_2d(locations, "locations")
        out = cls(locations.shape[0], tile_size, accuracy, max_rank)
        for i, rr in enumerate(out.ranges):
            out.diagonal[i] = build_covariance_tile(kernel, locations, rr, rr, nugget=nugget)
            for j, cr in enumerate(out.ranges[:i]):
                dense_tile = build_covariance_tile(kernel, locations, rr, cr, nugget=nugget)
                out.offdiag[(i, j)] = compress_tile(dense_tile, accuracy=accuracy, max_rank=max_rank)
        return out

    # -- queries ---------------------------------------------------------------
    @property
    def nt(self) -> int:
        """Number of tile rows/columns."""
        return len(self.ranges)

    def tile_shape(self, i: int, j: int) -> tuple[int, int]:
        r0, r1 = self.ranges[i]
        c0, c1 = self.ranges[j]
        return (r1 - r0, c1 - c0)

    def rank(self, i: int, j: int) -> int:
        """Rank of tile (i, j): full for diagonal tiles, stored rank off-diagonal."""
        if i == j:
            return self.tile_shape(i, i)[0]
        if j > i:
            i, j = j, i
        return self.offdiag[(i, j)].rank

    def rank_matrix(self) -> np.ndarray:
        """``(nt, nt)`` array of tile ranks (symmetric; diagonal = tile size)."""
        ranks = np.zeros((self.nt, self.nt), dtype=np.int64)
        for i in range(self.nt):
            ranks[i, i] = self.tile_shape(i, i)[0]
            for j in range(i):
                r = self.offdiag[(i, j)].rank
                ranks[i, j] = r
                ranks[j, i] = r
        return ranks

    def max_offdiag_rank(self) -> int:
        if not self.offdiag:
            return 0
        return max(tile.rank for tile in self.offdiag.values())

    def memory_bytes(self) -> int:
        total = sum(tile.nbytes for tile in self.diagonal.values())
        total += sum(tile.memory_bytes() for tile in self.offdiag.values())
        return total

    def dense_bytes(self) -> int:
        return self.n * self.n * 8

    def compression_ratio(self) -> float:
        """Dense storage divided by TLR storage (counting the full symmetric matrix)."""
        tlr = 2 * sum(tile.memory_bytes() for tile in self.offdiag.values())
        tlr += sum(tile.nbytes for tile in self.diagonal.values())
        return self.dense_bytes() / max(tlr, 1)

    # -- conversions -------------------------------------------------------------
    def to_dense(self, symmetrize: bool = True) -> np.ndarray:
        """Decompress to a dense matrix (testing / small problems only)."""
        out = np.zeros((self.n, self.n))
        for i, (r0, r1) in enumerate(self.ranges):
            out[r0:r1, r0:r1] = self.diagonal[i]
            for j, (c0, c1) in enumerate(self.ranges[:i]):
                block = self.offdiag[(i, j)].to_dense()
                out[r0:r1, c0:c1] = block
                if symmetrize:
                    out[c0:c1, r0:r1] = block.T
        return out

    def to_lower_dense(self) -> np.ndarray:
        """Decompress keeping only the lower triangle (for Cholesky factors)."""
        out = np.zeros((self.n, self.n))
        for i, (r0, r1) in enumerate(self.ranges):
            out[r0:r1, r0:r1] = np.tril(self.diagonal[i])
            for j, (c0, c1) in enumerate(self.ranges[:i]):
                out[r0:r1, c0:c1] = self.offdiag[(i, j)].to_dense()
        return out

    def copy(self) -> "TLRMatrix":
        out = TLRMatrix(self.n, self.tile_size, self.accuracy, self.max_rank)
        out.diagonal = {i: tile.copy() for i, tile in self.diagonal.items()}
        out.offdiag = {
            key: LowRankTile(tile.u.copy(), tile.v.copy()) for key, tile in self.offdiag.items()
        }
        return out

    def compression_error(self, dense_reference: np.ndarray, norm: str = "fro") -> float:
        """Relative reconstruction error against a dense reference matrix."""
        dense_reference = ensure_2d(dense_reference, "reference")
        approx = self.to_dense(symmetrize=True)
        if norm == "fro":
            return float(np.linalg.norm(approx - dense_reference) / np.linalg.norm(dense_reference))
        if norm == "2":
            return float(
                np.linalg.norm(approx - dense_reference, 2) / np.linalg.norm(dense_reference, 2)
            )
        raise ValueError("norm must be 'fro' or '2'")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TLRMatrix(n={self.n}, nb={self.tile_size}, eps={self.accuracy:g}, "
            f"max_rank={self.max_offdiag_rank()}, ratio={self.compression_ratio():.2f}x)"
        )
