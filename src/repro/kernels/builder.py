"""Covariance matrix assembly (dense and tile-wise).

Algorithm 1 of the paper starts by generating a covariance matrix from the
estimated parameters and the location set.  The tile-wise builder mirrors
the Chameleon/HiCMA codelets that generate one tile at a time directly in
the tile layout — this is what makes the out-of-core / distributed variants
possible without ever materializing the full matrix on one process.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.covariance import CovarianceKernel
from repro.kernels.geometry import cross_distances
from repro.utils.validation import check_positive_int, check_square, ensure_2d

__all__ = ["build_covariance", "build_covariance_tile", "build_tiled_covariance", "add_nugget"]


def build_covariance(kernel: CovarianceKernel, locations: np.ndarray, nugget: float = 0.0) -> np.ndarray:
    """Dense ``n x n`` covariance matrix for ``locations`` under ``kernel``.

    Parameters
    ----------
    kernel : CovarianceKernel
        Covariance function ``C(h; theta)``.
    locations : ndarray, shape (n, d)
        Spatial locations.
    nugget : float
        Optional nugget (measurement-error variance) added to the diagonal;
        also acts as a numerical regularizer for very smooth kernels.
    """
    locations = ensure_2d(locations, "locations")
    h = cross_distances(locations, locations)
    sigma = kernel(h)
    if nugget < 0:
        raise ValueError("nugget must be non-negative")
    if nugget:
        sigma = sigma + nugget * np.eye(locations.shape[0])
    # exact symmetry protects the Cholesky factorization downstream
    return 0.5 * (sigma + sigma.T)


def build_covariance_tile(
    kernel: CovarianceKernel,
    locations: np.ndarray,
    row_range: tuple[int, int],
    col_range: tuple[int, int],
    nugget: float = 0.0,
) -> np.ndarray:
    """One tile ``Sigma[row_range, col_range]`` generated directly.

    ``row_range`` / ``col_range`` are half-open ``(start, stop)`` index
    ranges into ``locations``.
    """
    locations = ensure_2d(locations, "locations")
    r0, r1 = row_range
    c0, c1 = col_range
    n = locations.shape[0]
    if not (0 <= r0 < r1 <= n and 0 <= c0 < c1 <= n):
        raise ValueError(f"tile ranges {row_range}, {col_range} out of bounds for n={n}")
    tile = kernel(cross_distances(locations[r0:r1], locations[c0:c1]))
    if nugget:
        overlap = range(max(r0, c0), min(r1, c1))
        for i in overlap:
            tile[i - r0, i - c0] += nugget
    return tile


def build_tiled_covariance(
    kernel: CovarianceKernel,
    locations: np.ndarray,
    tile_size: int,
    nugget: float = 0.0,
):
    """Generator yielding ``(i, j, tile)`` for the lower-triangular tiles.

    Only the lower triangle (``i >= j``) is generated because the matrix is
    symmetric; consumers that need the upper triangle transpose on the fly.
    """
    locations = ensure_2d(locations, "locations")
    tile_size = check_positive_int(tile_size, "tile_size")
    n = locations.shape[0]
    n_tiles = (n + tile_size - 1) // tile_size
    for i in range(n_tiles):
        r0, r1 = i * tile_size, min((i + 1) * tile_size, n)
        for j in range(i + 1):
            c0, c1 = j * tile_size, min((j + 1) * tile_size, n)
            yield i, j, build_covariance_tile(kernel, locations, (r0, r1), (c0, c1), nugget=nugget)


def add_nugget(sigma: np.ndarray, nugget: float) -> np.ndarray:
    """Return ``sigma + nugget * I`` without modifying the input."""
    sigma = check_square(sigma, "covariance")
    if nugget < 0:
        raise ValueError("nugget must be non-negative")
    out = sigma.copy()
    out[np.diag_indices_from(out)] += nugget
    return out
