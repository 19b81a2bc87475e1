"""Closed-form cost models of the PMVN phases.

The PMVN algorithm has two phases with different scaling:

* the Cholesky factorization — ``n^3 / 3`` flops dense, or the TLR count of
  :func:`repro.tlr.cholesky.tlr_cholesky_flops` which is roughly
  ``O(n nb^2 + n^2 k)`` for mean off-diagonal rank ``k``;
* the integration sweep — independent of the factor format (the limit
  matrices are not admissible for compression): ``O(n^2 N)`` flops of GEMM
  propagation plus ``O(n N)`` ``Phi``/``Phi^{-1}`` evaluations; with a TLR
  factor the GEMM part drops to ``O(n k N + n nb N)``.

These models explain the paper's two headline observations:

1. on shared memory the Cholesky dominates for large ``n`` and small ``N``,
   so TLR wins big (up to ~20x) and the advantage grows with the QMC sample
   size only because the sweep itself also benefits from the low-rank apply;
2. on distributed memory the sweep (which scales with ``N``) dominates, so
   the end-to-end TLR speedup compresses to 1.3-1.8x even though the TLR
   Cholesky alone is 2-5x faster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.machines import MachineSpec
from repro.tile.dense_kernels import potrf_flops
from repro.tlr.cholesky import tlr_cholesky_flops

__all__ = [
    "sweep_flops",
    "PMVNCostModel",
]

#: Cost, in equivalent flops, of one scalar Phi / Phi^{-1} evaluation pair in
#: the QMC kernel (erfc + Newton-free inverse via ndtri); calibrated against
#: the measured qmc_rows_per_second when a calibration is supplied.
PHI_EVAL_FLOPS = 60.0


def sweep_flops(n: int, n_samples: int, tile_size: int, mean_rank: float | None = None) -> float:
    """Flop model of the PMVN integration sweep for ``N`` QMC samples.

    ``mean_rank=None`` means the dense factor is used for the limit
    propagation; otherwise the off-diagonal GEMMs apply low-rank tiles.
    """
    gemm = 2.0 * n * n * n_samples if mean_rank is None else (
        # per off-diagonal tile: 2 * (nb*k + nb*k) * chains, summed over ~ (n/nb)^2/2 tiles
        2.0 * (n / tile_size) ** 2 / 2.0 * (2.0 * tile_size * mean_rank) * n_samples
        + 2.0 * n * tile_size * n_samples  # dense diagonal-block contribution
    )
    phi = PHI_EVAL_FLOPS * n * n_samples
    return gemm + phi


@dataclass
class PMVNCostModel:
    """Predicts PMVN phase times on a target machine.

    Parameters
    ----------
    machine : MachineSpec
        Target node.
    blas_efficiency : float
        Fraction of nominal peak the BLAS-3 kernels reach (GEMM/POTRF).
    sweep_efficiency : float
        Fraction of peak the bandwidth-bound sweep reaches (lower: the
        Phi/Phi^{-1} evaluations and the rank-1 row updates are memory bound).
    """

    machine: MachineSpec
    blas_efficiency: float = 0.55
    sweep_efficiency: float = 0.12
    #: efficiency of the per-tile randomized-SVD compression kernels
    compression_efficiency: float = 0.35
    #: cost of one covariance-kernel evaluation (Matérn Bessel-K), per core
    kernel_eval_ns: float = 80.0

    def generation_time(self, n: int) -> float:
        """Covariance-matrix generation: ``n^2`` kernel evaluations.

        Paid by both the dense and the TLR paths (the TLR path still
        evaluates every tile before compressing it), and — together with the
        compression step — the reason the TLR speedup at small QMC sample
        sizes is only ~3x in Table II.
        """
        return float(n) * float(n) * self.kernel_eval_ns * 1e-9 / self.machine.cores

    def cholesky_time(self, n: int, method: str = "dense", tile_size: int = 512, mean_rank: float = 12.0) -> float:
        flops = potrf_flops(n) if method == "dense" else tlr_cholesky_flops(n, tile_size, mean_rank)
        rate = self.machine.sustained_gflops(self.blas_efficiency) * 1e9
        return flops / rate

    def compression_time(self, n: int, tile_size: int = 512, mean_rank: float = 12.0) -> float:
        """Cost of generating-and-compressing the covariance in TLR format.

        Randomized-SVD sketches over all off-diagonal tiles:
        ``(n/nb)^2 / 2`` tiles, each ``~ 8 nb^2 (k + p)`` flops, i.e.
        ``~ 4 n^2 (k + 10)`` in total.  This fixed cost is why the paper's
        Table II shows only ~3x TLR speedup at small QMC sample sizes: the
        dense Cholesky saving is partly offset by the compression step until
        the sweep (which grows with N) starts to dominate the dense runtime.
        """
        flops = 4.0 * float(n) * float(n) * (mean_rank + 10.0)
        rate = self.machine.sustained_gflops(self.compression_efficiency) * 1e9
        return flops / rate

    def sweep_time(self, n: int, n_samples: int, method: str = "dense", tile_size: int = 512, mean_rank: float = 12.0) -> float:
        flops = sweep_flops(n, n_samples, tile_size, None if method == "dense" else mean_rank)
        rate = self.machine.sustained_gflops(self.sweep_efficiency) * 1e9
        return flops / rate

    def total_time(self, n: int, n_samples: int, method: str = "dense", tile_size: int = 512, mean_rank: float = 12.0) -> float:
        total = self.generation_time(n)
        total += self.cholesky_time(n, method, tile_size, mean_rank)
        total += self.sweep_time(n, n_samples, method, tile_size, mean_rank)
        if method != "dense":
            total += self.compression_time(n, tile_size, mean_rank)
        return total

    def speedup_tlr_over_dense(self, n: int, n_samples: int, tile_size: int = 512, mean_rank: float = 12.0) -> float:
        dense = self.total_time(n, n_samples, "dense", tile_size, mean_rank)
        tlr = self.total_time(n, n_samples, "tlr", tile_size, mean_rank)
        return dense / tlr
