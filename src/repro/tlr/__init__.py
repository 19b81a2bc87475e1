"""Tile Low-Rank (TLR) approximation (HiCMA-like substrate).

The paper reduces the cost of the SOV Cholesky factorization by compressing
each off-diagonal tile of the covariance matrix into a rank-``k`` factor
``U V^T`` at a user-chosen accuracy ``eps`` (1e-1 ... 1e-4 in the
experiments), while diagonal tiles stay dense.  This subpackage implements:

* :class:`~repro.tlr.compression.LowRankTile` and rank-adaptive tile
  compression (randomized QB with an exact error indicator, then a small
  SVD) with accuracy-driven rank truncation,
* low-rank arithmetic (rounding by recompression, products),
* :class:`~repro.tlr.matrix.TLRMatrix` — the compressed matrix container
  with rank statistics and memory accounting,
* :func:`~repro.tlr.cholesky.tlr_cholesky` — the TLR Cholesky factorization
  expressed as runtime tasks, compressing each tile once, after its last
  trailing update,
* :mod:`~repro.tlr.ranks` — rank-distribution analysis reproducing Figure 5.
"""

from repro.tlr.compression import (
    LowRankTile,
    compress_tile,
    lowrank_matmul_dense,
    recompress,
)
from repro.tlr.matrix import TLRMatrix
from repro.tlr.cholesky import tlr_cholesky, tlr_cholesky_flops
from repro.tlr.ranks import RankReport, rank_distribution, rank_histogram

__all__ = [
    "LowRankTile",
    "compress_tile",
    "lowrank_matmul_dense",
    "recompress",
    "TLRMatrix",
    "tlr_cholesky",
    "tlr_cholesky_flops",
    "RankReport",
    "rank_distribution",
    "rank_histogram",
]
