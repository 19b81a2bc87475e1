"""Statistical substrate: normal distribution, QMC sequences, MLE, posterior.

Everything the SOV/PMVN algorithms and the confidence-region application need
beyond linear algebra lives here:

* :mod:`repro.stats.normal` — the univariate normal CDF ``Phi`` and its
  inverse, the two scalar functions at the heart of the Genz transformation.
* :mod:`repro.stats.qmc` — quasi-Monte Carlo point sets (Halton, Sobol,
  Richtmyer lattice) with random shifts, used to fill the ``R`` matrix of
  Algorithm 2.
* :mod:`repro.stats.mle` — maximum likelihood estimation of covariance
  parameters (the ExaGeoStat role in the paper's pipeline).
* :mod:`repro.stats.posterior` — posterior mean/covariance of a latent field
  given noisy partial observations (equations 7 and 8 of the paper).
"""

from repro.stats.normal import norm_cdf, norm_ppf
from repro.stats.qmc import (
    HaltonSequence,
    RichtmyerLattice,
    SobolSequence,
    UniformRandom,
    qmc_samples,
    sequence_from_name,
)
from repro.stats.mle import MLEResult, fit_kernel, negative_log_likelihood
from repro.stats.posterior import PosteriorResult, posterior_from_observations, indicator_matrix

__all__ = [
    "norm_cdf",
    "norm_ppf",
    "HaltonSequence",
    "RichtmyerLattice",
    "SobolSequence",
    "UniformRandom",
    "qmc_samples",
    "sequence_from_name",
    "MLEResult",
    "fit_kernel",
    "negative_log_likelihood",
    "PosteriorResult",
    "posterior_from_observations",
    "indicator_matrix",
]
