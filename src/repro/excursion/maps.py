"""Map-level helpers for the excursion application.

The qualitative figures of the paper (Figures 1 and 2) show, per dataset:
the marginal probability map, the confidence (excursion) region map, and the
agreement between dense and TLR region maps.  These helpers turn the
per-location outputs of :func:`repro.core.crd.confidence_region` into grid
images and summary statistics.
"""

from __future__ import annotations

import numpy as np

from repro.core.crd import ConfidenceRegionResult, marginal_exceedance
from repro.kernels.geometry import Geometry
from repro.utils.validation import check_probability, ensure_1d

__all__ = [
    "marginal_probability_map",
    "excursion_map",
    "region_overlap",
]


def marginal_probability_map(geometry: Geometry, mean, variance, threshold: float) -> np.ndarray:
    """Marginal exceedance probabilities reshaped to the geometry's grid.

    For irregular geometries the flat vector is returned instead of an image.
    """
    probs = marginal_exceedance(
        np.asarray(mean, dtype=np.float64),
        np.asarray(variance, dtype=np.float64),
        threshold,
    )
    if geometry.grid_shape is not None:
        return geometry.as_image(probs)
    return probs


def excursion_map(geometry: Geometry, result: ConfidenceRegionResult, alpha: float) -> np.ndarray:
    """Binary excursion map (1 inside the confidence region) on the grid.

    For irregular geometries the flat indicator vector is returned.
    """
    alpha = check_probability(alpha, "alpha")
    mask = result.excursion_set(alpha).astype(float)
    if geometry.grid_shape is not None:
        return geometry.as_image(mask)
    return mask


def region_overlap(mask_a, mask_b) -> dict[str, float]:
    """Agreement statistics between two excursion masks (dense vs TLR).

    Returns the Jaccard index, the symmetric-difference fraction (relative to
    the union of the domain) and the two region sizes.
    """
    a = ensure_1d(np.asarray(mask_a, dtype=float).ravel(), "mask A") > 0.5
    b = ensure_1d(np.asarray(mask_b, dtype=float).ravel(), "mask B") > 0.5
    if a.shape != b.shape:
        raise ValueError("masks must have the same number of locations")
    union = np.count_nonzero(a | b)
    inter = np.count_nonzero(a & b)
    sym_diff = np.count_nonzero(a ^ b)
    return {
        "jaccard": inter / union if union else 1.0,
        "sym_diff_fraction": sym_diff / a.size,
        "size_a": int(np.count_nonzero(a)),
        "size_b": int(np.count_nonzero(b)),
    }
