"""Flop counts of the dense tile codelets (POTRF, TRSM, SYRK, GEMM).

The codelets themselves are the task bodies of
:func:`repro.tile.cholesky.tiled_cholesky` (whose POTRF the TLR Cholesky
shares); these counts follow the standard LAPACK conventions and feed the
runtime's task costs, the planner's prices and the performance model of
:mod:`repro.perf` and the distributed simulator.
"""

from __future__ import annotations

__all__ = [
    "potrf_flops",
    "trsm_flops",
    "syrk_flops",
    "gemm_flops",
]


def potrf_flops(nb: int) -> float:
    return nb ** 3 / 3.0


def trsm_flops(m: int, nb: int) -> float:
    return m * nb * nb


def syrk_flops(nb: int, k: int) -> float:
    return nb * nb * k


def gemm_flops(m: int, n: int, k: int) -> float:
    return 2.0 * m * n * k
