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
from repro.utils.validation import check_count, check_covariance, check_mean, check_square, ensure_2d

__all__ = [
    "sample_from_cholesky",
    "sample_from_covariance",
    "sample_gaussian_field",
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
    n_samples = check_count(n_samples, "n_samples")
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
