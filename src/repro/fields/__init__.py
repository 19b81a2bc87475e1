"""Gaussian random field simulation.

The synthetic datasets of the paper are realizations of zero-mean Gaussian
random fields with exponential/Matérn covariances (generated by ExaGeoStat in
the original pipeline).  :mod:`repro.fields.sampling` provides the samplers:
Cholesky-based exact sampling for arbitrary location sets, with an
eigendecomposition fallback for near-singular covariances.  The Monte Carlo
validation of the confidence regions draws its posterior fields through
:func:`~repro.fields.sampling.sample_from_covariance`.
"""

from repro.fields.sampling import (
    sample_gaussian_field,
    sample_from_cholesky,
    sample_from_covariance,
)

__all__ = [
    "sample_gaussian_field",
    "sample_from_cholesky",
    "sample_from_covariance",
]
