"""Micro-benchmarks anchoring the performance models.

``calibrate`` measures, on the machine actually running the reproduction:

* the dense GEMM rate (GFLOP/s) of the local BLAS at the tile size,
* the dense POTRF rate,
* the QMC-kernel throughput (chain-rows per second, i.e. how many
  ``Phi``/``Phi^{-1}`` row updates the SOV recursion performs per second),
* the TLR low-rank GEMM rate at a representative rank.

These rates are what the closed-form models and the distributed simulator
scale to other node counts; the shape of the predictions (speedups,
crossovers) therefore reflects measured constants rather than guesses.

The QMC throughput depends on the kernel backend, so ``calibrate`` accepts
``backend=`` and records the backend it timed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky as scipy_cholesky

from repro.core.kernel_backend import get_backend
from repro.core.qmc_kernel import qmc_kernel_tile
from repro.tlr.compression import LowRankTile, lowrank_matmul_dense
from repro.utils.validation import check_positive_int

__all__ = ["CalibrationResult", "calibrate"]


@dataclass
class CalibrationResult:
    """Measured kernel rates on the local machine."""

    tile_size: int
    gemm_gflops: float
    potrf_gflops: float
    qmc_rows_per_second: float
    lowrank_gemm_gflops: float
    rank: int
    #: kernel backend the QMC throughput was measured with (the resolved
    #: name: a ``backend=None`` call records the default it ran)
    backend: str | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        via = f" via {self.backend}" if self.backend else ""
        return (
            f"CalibrationResult(nb={self.tile_size}, gemm={self.gemm_gflops:.1f} GF/s, "
            f"potrf={self.potrf_gflops:.1f} GF/s, qmc={self.qmc_rows_per_second:.3g} rows/s{via}, "
            f"lr-gemm={self.lowrank_gemm_gflops:.1f} GF/s @ k={self.rank})"
        )


def _time_repeated(fn, min_seconds: float = 0.05, max_repeats: int = 50) -> float:
    """Median wall time of ``fn()`` over enough repeats to exceed ``min_seconds``."""
    times = []
    total = 0.0
    for _ in range(max_repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        total += elapsed
        if total > min_seconds and len(times) >= 3:
            break
    return float(np.median(times))


def calibrate(tile_size: int = 256, rank: int = 16, n_chains: int = 256, rng=None,
              backend: str | None = None) -> CalibrationResult:
    """Measure local kernel rates at the given tile size.

    ``backend=`` selects the QMC kernel implementation being timed (the
    GEMM/POTRF/low-rank rates are backend-independent); ``None`` follows the
    usual resolution (``$REPRO_KERNEL_BACKEND`` then ``"numpy"``).
    """
    tile_size = check_positive_int(tile_size, "tile_size")
    rank = check_positive_int(rank, "rank")
    n_chains = check_positive_int(n_chains, "n_chains")
    resolved_backend = get_backend(backend)
    rng = np.random.default_rng(rng)
    nb = tile_size

    a = rng.standard_normal((nb, nb))
    b = rng.standard_normal((nb, nb))
    gemm_time = _time_repeated(lambda: a @ b)
    gemm_gflops = 2.0 * nb**3 / gemm_time / 1e9

    spd = a @ a.T + nb * np.eye(nb)
    potrf_time = _time_repeated(lambda: scipy_cholesky(spd, lower=True, check_finite=False))
    potrf_gflops = (nb**3 / 3.0) / potrf_time / 1e9

    l_tile = np.linalg.cholesky(spd)
    r_tile = rng.random((nb, n_chains))
    a_tile = np.full((nb, n_chains), -3.0)
    b_tile = np.full((nb, n_chains), 3.0)

    def run_qmc():
        qmc_kernel_tile(
            l_tile,
            r_tile,
            a_tile.copy(),
            b_tile.copy(),
            np.ones(n_chains),
            np.zeros((nb, n_chains)),
            backend=resolved_backend,
        )

    qmc_time = _time_repeated(run_qmc)
    qmc_rows_per_second = nb * n_chains / qmc_time

    lr = LowRankTile(rng.standard_normal((nb, rank)), rng.standard_normal((nb, rank)))
    y_block = rng.standard_normal((nb, n_chains))
    lr_time = _time_repeated(lambda: lowrank_matmul_dense(lr, y_block))
    lr_flops = 2.0 * rank * n_chains * (2 * nb)
    lowrank_gemm_gflops = lr_flops / lr_time / 1e9

    return CalibrationResult(
        tile_size=tile_size,
        gemm_gflops=gemm_gflops,
        potrf_gflops=potrf_gflops,
        qmc_rows_per_second=qmc_rows_per_second,
        lowrank_gemm_gflops=lowrank_gemm_gflops,
        rank=rank,
        backend=resolved_backend.name,
    )

