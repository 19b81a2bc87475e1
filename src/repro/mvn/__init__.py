"""Baseline MVN probability estimators.

These are the comparison points the paper positions itself against:

* :func:`~repro.mvn.mc.mvn_mc` — the naive Monte Carlo estimator (sample the
  field, count hits), impractical at high accuracy but useful for validation.
* :func:`~repro.mvn.sov.mvn_sov` — the sequential Genz Separation-of-Variables
  algorithm, one sample at a time (the readable reference implementation).
* :func:`~repro.mvn.sov.mvn_sov_vectorized` — the same recursion vectorized
  over all QMC samples at once; mathematically identical to the tile-based
  PMVN of :mod:`repro.core` with a single row of tiles.

All estimators return an :class:`~repro.mvn.result.MVNResult`.
"""

from repro.mvn.result import MVNResult
from repro.mvn.mc import mvn_mc
from repro.mvn.sov import mvn_sov, mvn_sov_vectorized, sov_transform_limits

__all__ = [
    "MVNResult",
    "mvn_mc",
    "mvn_sov",
    "mvn_sov_vectorized",
    "sov_transform_limits",
]
