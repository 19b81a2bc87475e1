"""Tests for the excursion application layer: maps, MC validation, comparisons."""

import numpy as np
import pytest

from repro.core import confidence_region
from repro.excursion import (
    compare_confidence_functions,
    excursion_map,
    marginal_probability_map,
    mc_validate_regions,
    region_overlap,
)
from repro.kernels import ExponentialKernel, Geometry, build_covariance

# the heavier estimator-driven cases run on both kernel backends: the fused
# default and the reference row loop it is bit-identical to
BACKENDS = ["numpy", "reference"]


@pytest.fixture
def field_setup(rng):
    geom = Geometry.regular_grid(6, 5)
    kern = ExponentialKernel(1.0, 0.3)
    sigma = build_covariance(kern, geom.locations, nugget=1e-8)
    mean = 1.2 * np.exp(-((geom.locations[:, 0] - 0.3) ** 2 + (geom.locations[:, 1] - 0.4) ** 2) / 0.15)
    return geom, sigma, mean


class TestMaps:
    def test_marginal_map_shape(self, field_setup):
        geom, sigma, mean = field_setup
        img = marginal_probability_map(geom, mean, np.diag(sigma), threshold=0.5)
        assert img.shape == geom.grid_shape
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_marginal_map_irregular_geometry(self, rng):
        geom = Geometry.irregular(20, rng=0)
        out = marginal_probability_map(geom, np.zeros(20), np.ones(20), threshold=0.0)
        assert out.shape == (20,)
        np.testing.assert_allclose(out, 0.5)

    def test_excursion_map_binary(self, field_setup):
        geom, sigma, mean = field_setup
        res = confidence_region(sigma, mean, 0.5, n_samples=1000, tile_size=10, rng=0)
        img = excursion_map(geom, res, alpha=0.3)
        assert img.shape == geom.grid_shape
        assert set(np.unique(img)).issubset({0.0, 1.0})

    def test_region_overlap_identical(self):
        mask = np.array([1, 0, 1, 1, 0], dtype=float)
        stats = region_overlap(mask, mask)
        assert stats["jaccard"] == 1.0
        assert stats["sym_diff_fraction"] == 0.0

    def test_region_overlap_disjoint(self):
        a = np.array([1, 1, 0, 0], dtype=float)
        b = np.array([0, 0, 1, 1], dtype=float)
        stats = region_overlap(a, b)
        assert stats["jaccard"] == 0.0
        assert stats["sym_diff_fraction"] == 1.0

    def test_region_overlap_empty_masks(self):
        stats = region_overlap(np.zeros(4), np.zeros(4))
        assert stats["jaccard"] == 1.0

    def test_region_overlap_shape_mismatch(self):
        with pytest.raises(ValueError):
            region_overlap(np.zeros(3), np.zeros(4))


class TestMCValidation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_phat_at_least_level_up_to_mc_error(self, field_setup, backend):
        """By construction P(region ⊆ exceedance set) >= 1-alpha; the MC check
        must therefore find p_hat >= level (minus Monte Carlo noise)."""
        geom, sigma, mean = field_setup
        res = confidence_region(sigma, mean, 0.5, n_samples=6000, tile_size=10,
                                rng=1, backend=backend)
        val = mc_validate_regions(res, sigma, mean, n_samples=8000, rng=2)
        nonempty = [i for i, lvl in enumerate(val.levels) if res.region_size(1 - lvl) > 0]
        assert nonempty, "expected at least one non-empty region level"
        assert np.all(val.differences[nonempty] <= 0.03)

    def test_empty_regions_trivially_valid(self, field_setup):
        geom, sigma, mean = field_setup
        res = confidence_region(sigma, mean, 5.0, n_samples=500, tile_size=10, rng=1)
        val = mc_validate_regions(res, sigma, mean, n_samples=1000, levels=[0.9], rng=0)
        assert val.estimated[0] == 1.0
        assert val.details["empty_levels"] == 1

    def test_levels_validation(self, field_setup):
        geom, sigma, mean = field_setup
        res = confidence_region(sigma, mean, 0.5, n_samples=500, tile_size=10, rng=1)
        with pytest.raises(ValueError):
            mc_validate_regions(res, sigma, mean, n_samples=100, levels=[0.0, 0.5])

    def test_result_summary_fields(self, field_setup):
        geom, sigma, mean = field_setup
        res = confidence_region(sigma, mean, 0.5, n_samples=1000, tile_size=10, rng=1)
        val = mc_validate_regions(res, sigma, mean, n_samples=2000, levels=[0.2, 0.5, 0.8], rng=3)
        assert val.levels.shape == (3,)
        assert val.max_abs_difference >= 0.0
        assert "p_hat" in str(val) or "1-alpha" in str(val)


class TestCompareConfidenceFunctions:
    def test_identical_results_zero_difference(self, field_setup):
        geom, sigma, mean = field_setup
        res = confidence_region(sigma, mean, 0.5, n_samples=1000, tile_size=10, rng=1)
        cmp = compare_confidence_functions(res, res)
        assert cmp["max_pointwise_difference"] == 0.0
        assert np.all(cmp["region_size_difference"] == 0.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dense_vs_tlr_small_difference(self, field_setup, backend):
        """Figure 1/3 claim: dense vs TLR confidence functions differ by <~1e-3
        once the compression accuracy reaches 1e-3 or better."""
        geom, sigma, mean = field_setup
        dense = confidence_region(sigma, mean, 0.5, method="dense", n_samples=4000,
                                  tile_size=10, rng=7, backend=backend)
        tlr = confidence_region(sigma, mean, 0.5, method="tlr", accuracy=1e-4,
                                n_samples=4000, tile_size=10, rng=7, backend=backend)
        cmp = compare_confidence_functions(dense, tlr)
        assert cmp["max_pointwise_difference"] < 2e-3

    def test_tlr_accuracy_sweep_monotone(self, field_setup):
        """Looser TLR accuracy gives a (weakly) larger deviation from dense."""
        geom, sigma, mean = field_setup
        dense = confidence_region(sigma, mean, 0.5, method="dense", n_samples=3000, tile_size=10, rng=11)
        diffs = []
        for eps in (1e-1, 1e-3, 1e-6):
            tlr = confidence_region(sigma, mean, 0.5, method="tlr", accuracy=eps, n_samples=3000, tile_size=10, rng=11)
            diffs.append(compare_confidence_functions(dense, tlr)["max_pointwise_difference"])
        assert diffs[2] <= diffs[0] + 1e-9

    def test_size_mismatch_rejected(self, field_setup, rng):
        geom, sigma, mean = field_setup
        res = confidence_region(sigma, mean, 0.5, n_samples=500, tile_size=10, rng=1)
        other = confidence_region(sigma[:20, :20], mean[:20], 0.5, n_samples=500, tile_size=10, rng=1)
        with pytest.raises(ValueError):
            compare_confidence_functions(res, other)
