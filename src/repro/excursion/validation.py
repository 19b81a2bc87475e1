"""Monte Carlo validation of detected confidence regions.

The paper validates the excursion sets with the following check (Section
V-C): draw ``N`` samples from the fitted (posterior) distribution; for the
region detected at confidence ``1 - alpha``, let ``Ns`` be the number of
samples in which *every* location of the region exceeds the threshold; then
``p_hat(alpha) = Ns / N`` should be close to ``1 - alpha`` if the region is
correctly estimated.  Figure 1 (third column) plots ``1 - alpha - p_hat``
against ``1 - alpha`` for the dense and TLR region estimates; the curves stay
within roughly ``+/- 0.0075``, which is attributed to the MC error of
``p_hat`` itself.

``compare_confidence_functions`` reproduces the fourth column: the maximum
absolute difference between the dense and TLR confidence functions across
probability levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.crd import ConfidenceRegionResult
from repro.fields.sampling import sample_from_covariance
from repro.utils.validation import check_covariance, check_mean, check_positive_int, ensure_1d

__all__ = ["MCValidationResult", "mc_validate_regions", "compare_confidence_functions"]


@dataclass
class MCValidationResult:
    """Validation curve ``1 - alpha - p_hat(alpha)`` over probability levels."""

    levels: np.ndarray
    estimated: np.ndarray
    differences: np.ndarray
    n_samples: int
    details: dict = field(default_factory=dict)

    @property
    def max_abs_difference(self) -> float:
        finite = self.differences[np.isfinite(self.differences)]
        return float(np.max(np.abs(finite))) if finite.size else 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = ["1-alpha    p_hat      1-alpha-p_hat"]
        for lvl, est, diff in zip(self.levels, self.estimated, self.differences):
            lines.append(f"{lvl:8.3f}  {est:8.4f}  {diff:+12.5f}")
        return "\n".join(lines)


def mc_validate_regions(
    result: ConfidenceRegionResult,
    sigma,
    mean,
    n_samples: int = 50_000,
    levels=None,
    rng=None,
    batch_size: int = 2_000,
) -> MCValidationResult:
    """Validate a confidence-region result with Monte Carlo samples of the field.

    Parameters
    ----------
    result : ConfidenceRegionResult
        Output of :func:`repro.core.crd.confidence_region`.
    sigma, mean
        The (posterior) distribution the regions were computed for.
    n_samples : int
        Number of field samples (the paper uses 50,000).
    levels : array_like, optional
        Confidence levels ``1 - alpha`` to check; defaults to 0.05 ... 0.95.
    batch_size : int
        Samples are generated in batches to bound memory.
    """
    sigma = check_covariance(sigma, "covariance")
    n = sigma.shape[0]
    mu = check_mean(mean, n)
    n_samples = check_positive_int(n_samples, "n_samples")
    if levels is None:
        levels = np.linspace(0.05, 0.95, 19)
    levels = ensure_1d(levels, "levels")
    if np.any((levels <= 0.0) | (levels >= 1.0)):
        raise ValueError("confidence levels must lie strictly between 0 and 1")
    rng = np.random.default_rng(rng)

    # region masks per level (region at confidence level L = {F+ >= L})
    masks = [result.confidence_function >= level for level in levels]
    hit_counts = np.zeros(levels.shape[0], dtype=np.int64)
    empty = np.array([not np.any(mask) for mask in masks])

    remaining = n_samples
    threshold = result.threshold
    while remaining > 0:
        batch = min(batch_size, remaining)
        samples = sample_from_covariance(sigma, n_samples=batch, mean=mu, rng=rng)
        exceed = samples > threshold  # (n, batch)
        for idx, mask in enumerate(masks):
            if empty[idx]:
                continue
            hit_counts[idx] += int(np.count_nonzero(np.all(exceed[mask, :], axis=0)))
        remaining -= batch

    estimated = hit_counts / float(n_samples)
    # empty regions trivially satisfy the joint-exceedance condition
    estimated[empty] = 1.0
    differences = levels - estimated
    return MCValidationResult(
        levels=levels,
        estimated=estimated,
        differences=differences,
        n_samples=n_samples,
        details={"empty_levels": int(np.count_nonzero(empty)), "threshold": threshold},
    )


def compare_confidence_functions(
    reference: ConfidenceRegionResult,
    other: ConfidenceRegionResult,
    levels=None,
) -> dict[str, np.ndarray | float]:
    """Dense-vs-TLR comparison of two confidence functions.

    Returns per-level differences in region size fraction and the pointwise
    maximum absolute difference of the confidence functions — the quantities
    behind the right-most panels of Figure 1 and behind Figure 3.
    """
    if reference.n != other.n:
        raise ValueError("confidence functions must cover the same locations")
    if levels is None:
        levels = np.linspace(0.05, 0.95, 19)
    levels = ensure_1d(levels, "levels")
    size_diff = np.empty(levels.shape[0])
    for idx, level in enumerate(levels):
        ref_mask = reference.confidence_function >= level
        oth_mask = other.confidence_function >= level
        size_diff[idx] = (np.count_nonzero(ref_mask) - np.count_nonzero(oth_mask)) / reference.n
    pointwise = np.abs(reference.confidence_function - other.confidence_function)
    return {
        "levels": levels,
        "region_size_difference": size_diff,
        "max_pointwise_difference": float(pointwise.max()),
        "mean_pointwise_difference": float(pointwise.mean()),
    }
