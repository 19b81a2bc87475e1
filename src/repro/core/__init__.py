"""The paper's primary contribution: parallel tile-based MVN probability
computation (PMVN, Algorithms 2-3) and the confidence region detection
driver built on it (Algorithm 1).

Public entry points
-------------------
* :func:`~repro.core.api.mvn_probability` — one-call MVN probability with
  method selection (``"mc"``, ``"sov"``, ``"dense"``, ``"tlr"``; the full
  registry lives in :mod:`repro.core.methods`).
* :func:`~repro.batch.batched.mvn_probability_batch` — many boxes against
  one covariance, factorized once (re-exported from :mod:`repro.batch`).
* :func:`~repro.core.pmvn.pmvn_integrate` /
  :func:`~repro.core.pmvn.pmvn_integrate_batch` — the tile-parallel SOV
  integration sweep given a pre-computed dense or TLR factor (what
  Algorithm 1 calls in its inner loop).
* :class:`~repro.core.crd.ConfidenceRegionResult` and
  :func:`~repro.core.crd.confidence_region` — Algorithm 1.
"""

from repro.core.factor import CholeskyFactor, DenseTileFactor, TLRFactor, factorize
from repro.core.update import (
    DowndateError,
    FactorLineage,
    lineage_fingerprint,
    update_factor,
)
from repro.core.methods import ACCEPTED_METHODS, METHOD_SPECS, canonical_method
from repro.core.qmc_kernel import qmc_kernel_tile
from repro.core.kernel_backend import KernelWorkspace, available_backends, get_backend
from repro.core.pmvn import pmvn_integrate, pmvn_integrate_batch, PMVNOptions, SweepWorkspace
from repro.core.crd import (
    ConfidenceRegionResult,
    confidence_region,
    confidence_region_from_posterior,
    marginal_exceedance,
)
from repro.core.api import mvn_probability, mvn_probability_batch

__all__ = [
    "CholeskyFactor",
    "DenseTileFactor",
    "TLRFactor",
    "factorize",
    "DowndateError",
    "FactorLineage",
    "lineage_fingerprint",
    "update_factor",
    "ACCEPTED_METHODS",
    "METHOD_SPECS",
    "canonical_method",
    "qmc_kernel_tile",
    "KernelWorkspace",
    "available_backends",
    "get_backend",
    "SweepWorkspace",
    "pmvn_integrate",
    "pmvn_integrate_batch",
    "PMVNOptions",
    "ConfidenceRegionResult",
    "confidence_region",
    "confidence_region_from_posterior",
    "marginal_exceedance",
    "mvn_probability",
    "mvn_probability_batch",
]
