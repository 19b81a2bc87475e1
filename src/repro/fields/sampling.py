"""Samplers for Gaussian random fields.

All samplers are exact (no approximation): a field with covariance ``Sigma``
is obtained as ``mu + L z`` with ``L`` a factor satisfying ``L L^T = Sigma``
and ``z`` i.i.d. standard normal.  The Cholesky factor is preferred; when the
covariance is numerically semi-definite an eigendecomposition with clipped
eigenvalues is used instead.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.builder import build_covariance
from repro.kernels.covariance import CovarianceKernel
from repro.utils.validation import check_covariance, check_mean, check_square, ensure_1d, ensure_2d

__all__ = [
    "sample_from_cholesky",
    "sample_from_covariance",
    "sample_gaussian_field",
    "conditional_simulation",
]


def sample_from_cholesky(
    factor: np.ndarray,
    n_samples: int = 1,
    mean: np.ndarray | float = 0.0,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Draw samples ``mu + L z`` given a lower-triangular factor ``L``.

    Returns an ``(n, n_samples)`` array (a single column for ``n_samples=1``).
    """
    factor = check_square(factor, "Cholesky factor")
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(rng)
    n = factor.shape[0]
    z = rng.standard_normal((n, n_samples))
    return factor @ z + np.reshape(check_mean(mean, n), (-1, 1))


def _factorize(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular (or symmetric square-root) factor of a covariance."""
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        # semi-definite fallback: eigendecomposition with clipped eigenvalues
        eigvals, eigvecs = np.linalg.eigh(sigma)
        eigvals = np.clip(eigvals, 0.0, None)
        return eigvecs * np.sqrt(eigvals)[None, :]


def sample_from_covariance(
    sigma: np.ndarray,
    n_samples: int = 1,
    mean: np.ndarray | float = 0.0,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Draw samples from ``N(mean, sigma)``; returns ``(n, n_samples)``."""
    sigma = check_covariance(sigma, "covariance")
    return sample_from_cholesky(_factorize(sigma), n_samples=n_samples, mean=mean, rng=rng)


def sample_gaussian_field(
    kernel: CovarianceKernel,
    locations: np.ndarray,
    n_samples: int = 1,
    mean: np.ndarray | float = 0.0,
    nugget: float = 1e-10,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Sample a Gaussian random field at ``locations`` under ``kernel``.

    The tiny default nugget keeps the Cholesky factorization stable for very
    smooth kernels on dense grids.
    """
    locations = ensure_2d(locations, "locations")
    sigma = build_covariance(kernel, locations, nugget=nugget)
    return sample_from_covariance(sigma, n_samples=n_samples, mean=mean, rng=rng)


def conditional_simulation(
    sigma: np.ndarray,
    observed_indices,
    observed_values: np.ndarray,
    n_samples: int = 1,
    noise_std: float = 0.0,
    mean: np.ndarray | float = 0.0,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Simulate the latent field conditionally on (possibly noisy) observations.

    Used by the Monte Carlo validation algorithm: samples of the posterior
    field are drawn and the fraction exceeding the threshold inside the
    detected region is compared against the requested confidence level.

    Parameters
    ----------
    sigma : ndarray (n, n)
        Prior covariance of the full field.
    observed_indices : int array (m,)
        Indices of the conditioning locations.
    observed_values : ndarray (m,)
        Observed (noisy) values at those locations.
    noise_std : float
        Observation noise standard deviation (0 for exact conditioning).
    """
    sigma = check_covariance(sigma, "covariance")
    n = sigma.shape[0]
    observed_indices = np.asarray(observed_indices, dtype=np.intp)
    observed_values = ensure_1d(observed_values, "observed values")
    if observed_indices.ndim != 1 or observed_indices.size == 0:
        raise ValueError("observed_indices must be a non-empty 1-D array")
    if np.any(observed_indices < 0) or np.any(observed_indices >= n):
        raise ValueError("observed indices out of range")
    if observed_values.shape[0] != observed_indices.shape[0]:
        raise ValueError("observed_values must match observed_indices in length")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    rng = np.random.default_rng(rng)
    mu = np.broadcast_to(check_mean(mean, n), n)

    s_oo = sigma[np.ix_(observed_indices, observed_indices)].copy()
    s_oo[np.diag_indices_from(s_oo)] += noise_std**2 + 1e-12
    s_ao = sigma[:, observed_indices]
    solve = np.linalg.solve
    gain = solve(s_oo, s_ao.T).T  # (n, m) Kalman-style gain
    cond_mean = mu + gain @ (observed_values - mu[observed_indices])
    cond_cov = sigma - gain @ s_ao.T
    cond_cov = 0.5 * (cond_cov + cond_cov.T)
    factor = _factorize(cond_cov)
    z = rng.standard_normal((n, n_samples))
    return factor @ z + cond_mean[:, None]
