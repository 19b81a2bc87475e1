"""Univariate normal distribution functions.

The Genz SOV transformation evaluates the standard normal CDF ``Phi`` and its
inverse ``Phi^{-1}`` once per matrix entry per QMC sample, so these two
functions dominate the non-BLAS part of the QMC kernel (Algorithm 3).  The
implementations here are fully vectorized:

* ``norm_cdf`` uses ``scipy.special.ndtr`` (erfc-based, double precision).
* ``norm_ppf`` uses ``scipy.special.ndtri`` with explicit handling of the
  0/1 endpoints so the SOV recursion never produces NaN when an interval
  probability underflows.

Every hot-path function takes an optional ``out=`` buffer so the QMC kernel
(:mod:`repro.core.kernel_backend`) can run allocation-free: with ``out=``
given, results are written into the caller's array and no temporary is
created.  The ``out=`` paths produce bit-identical values to the plain calls
— they invoke the same ufuncs on the same operands (``np.clip`` is spelled
as its definition ``minimum(maximum(x, lo), hi)``, which is both cheaper and
exactly equivalent elementwise).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "norm_cdf",
    "norm_ppf",
    "PPF_EPS",
]

#: probabilities are clipped into [PPF_EPS, 1 - PPF_EPS] before inversion;
#: ndtri maps these to roughly +/- 8.2 standard deviations, safely finite
PPF_EPS = 1e-16


def norm_cdf(x, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal CDF ``Phi(x)``, elementwise, handling +/- infinity.

    With ``out=`` the result is written into the given float64 buffer
    (which may alias ``x``) and no temporary is allocated.
    """
    if out is not None:
        return ndtr(x, out=out)
    x = np.asarray(x, dtype=np.float64)
    return ndtr(x)


def norm_ppf(p, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse standard normal CDF ``Phi^{-1}(p)``, elementwise.

    Probabilities are clipped away from 0 and 1 so that the result is always
    finite.  This mirrors the behaviour of the reference tlrmvnmvt code,
    which caps the transformed sample rather than propagating infinities
    through the recursion.  With ``out=`` the clip and the inversion both
    write into the given buffer (which may alias ``p``).
    """
    if out is not None:
        np.maximum(p, PPF_EPS, out=out)
        np.minimum(out, 1.0 - PPF_EPS, out=out)
        return ndtri(out, out=out)
    p = np.asarray(p, dtype=np.float64)
    clipped = np.clip(p, PPF_EPS, 1.0 - PPF_EPS)
    return ndtri(clipped)
