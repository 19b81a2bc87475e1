"""Naive Monte Carlo MVN probability estimator.

Draws samples ``x ~ N(mu, Sigma)`` and counts how many land inside the box
``[a, b]``.  This is the method the paper dismisses for high dimensions when
accuracy matters (the hit probability may be tiny and the variance of the
indicator is large), but it is the natural cross-check for the SOV/PMVN
estimators in the regimes where both work.
"""

from __future__ import annotations

import numpy as np

from repro.mvn.result import MVNResult
from repro.utils.validation import check_covariance, check_limits, check_mean, check_positive_int

__all__ = ["mvn_mc"]


def mvn_mc(
    a,
    b,
    sigma,
    n_samples: int = 10_000,
    mean=0.0,
    rng: np.random.Generator | int | None = None,
    batch_size: int = 4096,
) -> MVNResult:
    """Estimate ``P(a <= X <= b)`` for ``X ~ N(mean, sigma)`` by plain Monte Carlo.

    Parameters
    ----------
    a, b : array_like, shape (n,)
        Lower and upper integration limits (``+/- inf`` allowed).
    sigma : array_like, shape (n, n)
        Covariance matrix (must be symmetric positive definite).
    n_samples : int
        Total number of samples.
    mean : float or array_like
        Mean vector (0 by default, as in the paper).
    batch_size : int
        Samples are drawn in batches of this size to bound memory.

    Returns
    -------
    MVNResult
        Probability estimate with the binomial standard error
        ``sqrt(p (1-p) / N)``.
    """
    sigma = check_covariance(sigma, "covariance", require_spd=True)
    n = sigma.shape[0]
    a, b = check_limits(a, b, n)
    n_samples = check_positive_int(n_samples, "n_samples")
    batch_size = check_positive_int(batch_size, "batch_size")
    mu = np.reshape(check_mean(mean, n), (-1, 1))  # broadcasts over the samples
    rng = np.random.default_rng(rng)

    factor = np.linalg.cholesky(sigma)
    hits = 0
    remaining = n_samples
    while remaining > 0:
        batch = min(batch_size, remaining)
        z = rng.standard_normal((n, batch))
        x = factor @ z + mu
        inside = np.all((x >= a[:, None]) & (x <= b[:, None]), axis=0)
        hits += int(np.count_nonzero(inside))
        remaining -= batch

    p_hat = hits / n_samples
    std_err = float(np.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / n_samples))
    return MVNResult(
        probability=p_hat,
        error=std_err,
        n_samples=n_samples,
        dimension=n,
        method="mc",
    )
