"""Sequential Genz Separation-of-Variables (SOV) MVN estimators.

These implement equation (2)/(3) of the paper directly:

1. factor the covariance, ``Sigma = L L^T``;
2. for each (quasi-)random sample ``w in (0,1)^{n-1}``, walk the recursion

   .. math::

       a'_i = \\frac{a_i - \\sum_{j<i} L_{ij} y_j}{L_{ii}}, \\qquad
       b'_i = \\frac{b_i - \\sum_{j<i} L_{ij} y_j}{L_{ii}}, \\qquad
       y_i = \\Phi^{-1}\\!\\big(\\Phi(a'_i) + w_i\\,(\\Phi(b'_i) - \\Phi(a'_i))\\big)

   accumulating the product of the interval probabilities
   ``\\Phi(b'_i) - \\Phi(a'_i)``;
3. average over samples.

``mvn_sov`` is the readable scalar-loop reference; ``mvn_sov_vectorized``
performs the identical recursion but for all samples at once (one vector
operation per dimension), which is the building block the tiled PMVN
parallelizes.  Note that Algorithm 3 in the paper omits the ``+ Phi(a')``
term in the ``y`` update — that is a typographical slip; the Genz recursion
implemented here (and in the reference tlrmvnmvt code) includes it.
"""

from __future__ import annotations

import numpy as np

from repro.mvn.result import MVNResult
from repro.stats.normal import norm_cdf, norm_ppf
from repro.stats.qmc import qmc_samples
from repro.utils.validation import check_covariance, check_limits, check_mean, check_positive_int

__all__ = ["sov_transform_limits", "mvn_sov", "mvn_sov_vectorized"]


def sov_transform_limits(a, b, sigma, mean=0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standardize the problem: subtract the mean and return ``(a', b', L)``.

    The SOV recursion assumes a zero-mean field; a non-zero mean is absorbed
    into the limits (``a - mu``, ``b - mu``), exactly as Algorithm 1 does when
    it builds the ``a`` vector from the threshold and the posterior mean.
    """
    sigma = check_covariance(sigma, "covariance", require_spd=True)
    n = sigma.shape[0]
    a, b = check_limits(a, b, n)
    mu = check_mean(mean, n)
    factor = np.linalg.cholesky(sigma)
    return a - mu, b - mu, factor


def mvn_sov(
    a,
    b,
    sigma,
    n_samples: int = 2_000,
    mean=0.0,
    qmc: str = "richtmyer",
    rng: np.random.Generator | int | None = None,
) -> MVNResult:
    """Sequential (scalar-loop) Genz SOV estimator.

    Readable reference used by the tests to validate the vectorized and tiled
    implementations; complexity ``O(N n^2)`` after the ``O(n^3)`` Cholesky.
    """
    n_samples = check_positive_int(n_samples, "n_samples")
    a0, b0, factor = sov_transform_limits(a, b, sigma, mean)
    n = factor.shape[0]
    w = qmc_samples(max(n - 1, 1), n_samples, method=qmc, rng=rng)

    values = np.empty(n_samples)
    for s in range(n_samples):
        y = np.empty(n)
        prob = 1.0
        for i in range(n):
            shift = float(factor[i, :i] @ y[:i]) if i else 0.0
            ai = (a0[i] - shift) / factor[i, i]
            bi = (b0[i] - shift) / factor[i, i]
            phi_a = float(norm_cdf(ai))
            phi_b = float(norm_cdf(bi))
            width = max(phi_b - phi_a, 0.0)
            prob *= width
            if i < n - 1:
                y[i] = float(norm_ppf(phi_a + w[i, s] * width))
        values[s] = prob

    estimate = float(values.mean())
    std_err = float(values.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return MVNResult(estimate, std_err, n_samples, n, method="sov")


def mvn_sov_vectorized(
    a,
    b,
    sigma,
    n_samples: int = 10_000,
    mean=0.0,
    qmc: str = "richtmyer",
    rng: np.random.Generator | int | None = None,
    return_chain_values: bool = False,
) -> MVNResult:
    """Genz SOV estimator vectorized across all samples.

    One pass over the ``n`` dimensions; per dimension a handful of length-``N``
    vector operations (Phi, Phi^-1, an axpy with the Cholesky row).  This is
    the bulk-synchronous counterpart of the tile-parallel PMVN and the
    implementation used as the single-node accuracy reference.
    """
    n_samples = check_positive_int(n_samples, "n_samples")
    a0, b0, factor = sov_transform_limits(a, b, sigma, mean)
    n = factor.shape[0]
    w = qmc_samples(max(n - 1, 1), n_samples, method=qmc, rng=rng)

    # n-1 rows, matching ``w``: the recursion never draws (or reads) a sample
    # for the last dimension, so row n-1 would be dead memory traffic
    y = np.zeros((max(n - 1, 0), n_samples))
    prob = np.ones(n_samples)
    for i in range(n):
        shift = factor[i, :i] @ y[:i] if i else 0.0
        ai = (a0[i] - shift) / factor[i, i]
        bi = (b0[i] - shift) / factor[i, i]
        phi_a = norm_cdf(ai)
        phi_b = norm_cdf(bi)
        width = np.maximum(phi_b - phi_a, 0.0)
        prob *= width
        if i < n - 1:
            y[i] = norm_ppf(phi_a + w[i] * width)

    estimate = float(prob.mean())
    std_err = float(prob.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    details = {"chain_values": prob} if return_chain_values else {}
    return MVNResult(estimate, std_err, n_samples, n, method="sov-vectorized", details=details)
