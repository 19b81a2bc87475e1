"""Direct unit tests for repro.excursion.maps and repro.excursion.validation.

The integration suite exercises these helpers only through the Figure-1
pipeline; here each public function is pinned down in isolation — grid
vs irregular reshaping, overlap statistics on hand-built masks, the MC
validation estimator's conventions (strict level bounds, empty-region
handling, seeded reproducibility) and the dense-vs-TLR comparison keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.crd import ConfidenceRegionResult, confidence_region, marginal_exceedance
from repro.excursion import (
    MCValidationResult,
    compare_confidence_functions,
    excursion_map,
    marginal_probability_map,
    mc_validate_regions,
    region_overlap,
)
from repro.kernels import Geometry


def _grid_field(side: int) -> tuple[Geometry, np.ndarray, np.ndarray]:
    geom = Geometry.regular_grid(side)
    pts = geom.locations
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    sigma = np.exp(-dist / 0.4) + 1e-6 * np.eye(geom.n)
    mean = np.linspace(-0.8, 0.8, geom.n)
    return geom, sigma, mean


def _synthetic_result(confidence) -> ConfidenceRegionResult:
    confidence = np.asarray(confidence, dtype=np.float64)
    n = confidence.shape[0]
    return ConfidenceRegionResult(
        confidence_function=confidence,
        marginal_probabilities=np.linspace(0.1, 0.9, n),
        order=np.arange(n),
        threshold=0.0,
    )


class TestMarginalProbabilityMap:
    def test_grid_reshapes_to_image(self):
        geom = Geometry.regular_grid(3)
        mean = np.linspace(-1.0, 1.0, 9)
        variance = np.full(9, 0.5)
        image = marginal_probability_map(geom, mean, variance, threshold=0.0)
        assert image.shape == (3, 3)
        expected = marginal_exceedance(mean, variance, 0.0)
        assert np.array_equal(image.ravel(), geom.as_image(expected).ravel())
        # exceedance probability grows with the mean
        assert np.all(np.diff(image.ravel()) > 0)

    def test_irregular_returns_flat_vector(self):
        geom = Geometry.irregular(5, rng=0)
        probs = marginal_probability_map(geom, np.zeros(5), np.ones(5), 0.0)
        assert probs.shape == (5,)
        assert np.allclose(probs, 0.5)


class TestExcursionMap:
    def test_binary_map_matches_excursion_set(self):
        geom = Geometry.regular_grid(2)
        result = _synthetic_result([0.99, 0.7, 0.96, 0.1])
        image = excursion_map(geom, result, alpha=0.05)
        assert image.shape == (2, 2)
        assert set(np.unique(image)) <= {0.0, 1.0}
        assert np.array_equal(image.ravel() > 0.5,
                              geom.as_image(result.excursion_set(0.05).astype(float)).ravel() > 0.5)

    def test_irregular_returns_flat_indicator(self):
        geom = Geometry.irregular(4, rng=1)
        mask = excursion_map(geom, _synthetic_result([0.99, 0.1, 0.97, 0.2]), 0.05)
        assert mask.shape == (4,)
        assert np.array_equal(mask, [1.0, 0.0, 1.0, 0.0])

    def test_alpha_validated(self):
        geom = Geometry.regular_grid(2)
        with pytest.raises(ValueError):
            excursion_map(geom, _synthetic_result(np.zeros(4)), alpha=1.5)


class TestRegionOverlap:
    def test_identical_masks(self):
        mask = np.array([1.0, 0.0, 1.0, 1.0])
        stats = region_overlap(mask, mask)
        assert stats["jaccard"] == 1.0
        assert stats["sym_diff_fraction"] == 0.0
        assert stats["size_a"] == stats["size_b"] == 3

    def test_disjoint_masks(self):
        stats = region_overlap([1.0, 0.0, 0.0], [0.0, 1.0, 1.0])
        assert stats["jaccard"] == 0.0
        assert stats["sym_diff_fraction"] == 1.0

    def test_empty_masks_agree_trivially(self):
        stats = region_overlap(np.zeros(4), np.zeros(4))
        assert stats["jaccard"] == 1.0  # empty union: perfect agreement
        assert stats["size_a"] == 0 and stats["size_b"] == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same number of locations"):
            region_overlap(np.zeros(3), np.zeros(4))


class TestMCValidateRegions:
    def test_default_levels_and_details(self):
        _, sigma, mean = _grid_field(3)
        result = confidence_region(sigma, mean, 0.0, n_samples=100, rng=0)
        validation = mc_validate_regions(result, sigma, mean,
                                         n_samples=300, rng=0, batch_size=128)
        assert validation.levels.shape == (19,)
        assert validation.estimated.shape == (19,)
        assert np.all((validation.estimated >= 0.0) & (validation.estimated <= 1.0))
        assert np.array_equal(validation.differences,
                              validation.levels - validation.estimated)
        assert validation.n_samples == 300
        assert validation.details["threshold"] == 0.0
        assert "empty_levels" in validation.details

    def test_levels_must_be_strictly_inside_unit_interval(self):
        _, sigma, mean = _grid_field(3)
        result = confidence_region(sigma, mean, 0.0, n_samples=100, rng=0)
        for bad in ([0.0], [1.0], [0.5, 1.2]):
            with pytest.raises(ValueError, match="strictly between"):
                mc_validate_regions(result, sigma, mean, n_samples=50, levels=bad)

    def test_empty_region_counts_as_satisfied(self):
        n = 9
        sigma = np.eye(n)
        result = _synthetic_result(np.zeros(n))  # no location ever in the region
        validation = mc_validate_regions(result, sigma, np.zeros(n),
                                         n_samples=50, levels=[0.5], rng=0)
        assert validation.estimated[0] == 1.0
        assert validation.differences[0] == pytest.approx(-0.5)
        assert validation.details["empty_levels"] == 1

    def test_seeded_runs_reproduce(self):
        _, sigma, mean = _grid_field(3)
        result = confidence_region(sigma, mean, 0.0, n_samples=100, rng=0)
        a = mc_validate_regions(result, sigma, mean, n_samples=200, rng=42)
        b = mc_validate_regions(result, sigma, mean, n_samples=200, rng=42)
        assert np.array_equal(a.estimated, b.estimated)

    def test_max_abs_difference_ignores_non_finite(self):
        validation = MCValidationResult(
            levels=np.array([0.5, 0.9]),
            estimated=np.array([0.4, np.nan]),
            differences=np.array([0.1, np.nan]),
            n_samples=10,
        )
        assert validation.max_abs_difference == pytest.approx(0.1)
        empty = MCValidationResult(levels=np.array([]), estimated=np.array([]),
                                   differences=np.array([]), n_samples=1)
        assert empty.max_abs_difference == 0.0


class TestCompareConfidenceFunctions:
    def test_identical_results_have_zero_differences(self):
        result = _synthetic_result(np.linspace(0.0, 1.0, 6))
        out = compare_confidence_functions(result, result)
        assert out["levels"].shape == (19,)
        assert np.array_equal(out["region_size_difference"], np.zeros(19))
        assert out["max_pointwise_difference"] == 0.0
        assert out["mean_pointwise_difference"] == 0.0

    def test_size_and_pointwise_differences(self):
        reference = _synthetic_result([0.9, 0.9, 0.1, 0.1])
        other = _synthetic_result([0.9, 0.1, 0.1, 0.1])
        out = compare_confidence_functions(reference, other, levels=[0.5])
        assert out["region_size_difference"][0] == pytest.approx(0.25)
        assert out["max_pointwise_difference"] == pytest.approx(0.8)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same locations"):
            compare_confidence_functions(_synthetic_result(np.zeros(4)),
                                         _synthetic_result(np.zeros(5)))
