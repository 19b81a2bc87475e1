"""Spatial geometry and covariance kernels (ExaGeoStat-like substrate).

The paper constructs covariance matrices from spatial locations through a
predetermined covariance function ``C(||h||; theta)`` — the Matérn family for
the wind dataset and the exponential kernel (Matérn with smoothness 0.5) for
the synthetic suites.  This subpackage provides:

* location generators (regular grids, irregular/jittered point sets),
* distance computations,
* the covariance kernel family,
* dense and tile-wise covariance matrix assembly.
"""

from repro.kernels.geometry import (
    Geometry,
    grid_locations,
    irregular_locations,
    pairwise_distances,
    cross_distances,
)
from repro.kernels.covariance import (
    CovarianceKernel,
    MaternKernel,
    ExponentialKernel,
    GaussianKernel,
    PoweredExponentialKernel,
)
from repro.kernels.builder import (
    build_covariance,
    build_covariance_tile,
    build_tiled_covariance,
    add_nugget,
)

__all__ = [
    "Geometry",
    "grid_locations",
    "irregular_locations",
    "pairwise_distances",
    "cross_distances",
    "CovarianceKernel",
    "MaternKernel",
    "ExponentialKernel",
    "GaussianKernel",
    "PoweredExponentialKernel",
    "build_covariance",
    "build_covariance_tile",
    "build_tiled_covariance",
    "add_nugget",
]
