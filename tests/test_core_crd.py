"""Tests for the confidence region detection algorithm (Algorithm 1)."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from repro.core import confidence_region, confidence_region_from_posterior, marginal_exceedance
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.stats.posterior import posterior_from_observations


@pytest.fixture
def small_field(rng):
    """A 5x4 grid field with a spatially varying mean (gives non-trivial regions)."""
    geom = Geometry.regular_grid(5, 4)
    kern = ExponentialKernel(1.0, 0.3)
    sigma = build_covariance(kern, geom.locations, nugget=1e-8)
    mean = 1.5 * np.exp(-((geom.locations[:, 0] - 0.2) ** 2 + (geom.locations[:, 1] - 0.3) ** 2) / 0.1)
    return geom, sigma, mean


class TestMarginalExceedance:
    def test_matches_normal_sf(self, rng):
        mean = rng.normal(size=10)
        var = rng.uniform(0.5, 2.0, 10)
        probs = marginal_exceedance(mean, var, threshold=0.7)
        np.testing.assert_allclose(probs, norm.sf((0.7 - mean) / np.sqrt(var)), atol=1e-12)

    def test_monotone_in_threshold(self, rng):
        mean, var = np.zeros(5), np.ones(5)
        low = marginal_exceedance(mean, var, 0.0)
        high = marginal_exceedance(mean, var, 1.0)
        assert np.all(high < low)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            marginal_exceedance(np.zeros(3), np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            marginal_exceedance(np.zeros(3), np.ones(2), 0.0)


class TestConfidenceRegion:
    def test_prefix_probabilities_match_scipy(self, small_field):
        """Every prefix joint probability must match the exact MVN value."""
        geom, sigma, mean = small_field
        u = 0.5
        res = confidence_region(sigma, mean, u, method="dense", n_samples=6000, tile_size=10, rng=1)
        prefix = res.details["prefix_probabilities"]
        order = res.order
        std = np.sqrt(np.diag(sigma))
        for i in (1, 2, 4, 8, geom.n):
            idx = order[:i]
            ref = multivariate_normal(mean=-mean[idx], cov=sigma[np.ix_(idx, idx)], allow_singular=True).cdf(
                np.full(i, -u)
            )
            assert prefix[i - 1] == pytest.approx(ref, abs=6e-3)
        assert std.shape == (geom.n,)

    def test_confidence_function_between_zero_and_one(self, small_field):
        geom, sigma, mean = small_field
        res = confidence_region(sigma, mean, 0.4, n_samples=2000, tile_size=10, rng=0)
        assert np.all(res.confidence_function >= 0.0)
        assert np.all(res.confidence_function <= 1.0 + 1e-12)

    def test_confidence_function_bounded_by_marginals(self, small_field):
        """F+(s) <= P(X(s) > u): joining more locations cannot raise the joint probability."""
        geom, sigma, mean = small_field
        res = confidence_region(sigma, mean, 0.4, n_samples=4000, tile_size=10, rng=0)
        assert np.all(res.confidence_function <= res.marginal_probabilities + 5e-3)

    def test_excursion_sets_nested_in_alpha(self, small_field):
        geom, sigma, mean = small_field
        res = confidence_region(sigma, mean, 0.4, n_samples=2000, tile_size=10, rng=0)
        strict = res.excursion_set(alpha=0.05)
        loose = res.excursion_set(alpha=0.5)
        assert np.all(loose[strict])  # strict region contained in loose region
        assert res.region_size(0.5) >= res.region_size(0.05)

    def test_excursion_indices_match_mask(self, small_field):
        geom, sigma, mean = small_field
        res = confidence_region(sigma, mean, 0.4, n_samples=1000, tile_size=10, rng=0)
        idx = res.excursion_indices(0.3)
        mask = res.excursion_set(0.3)
        assert set(idx.tolist()) == set(np.flatnonzero(mask).tolist())

    def test_higher_threshold_smaller_region(self, small_field):
        geom, sigma, mean = small_field
        low = confidence_region(sigma, mean, 0.2, n_samples=2000, tile_size=10, rng=3)
        high = confidence_region(sigma, mean, 1.2, n_samples=2000, tile_size=10, rng=3)
        assert high.region_size(0.3) <= low.region_size(0.3)

    def test_sequential_matches_prefix(self, small_field):
        """The paper-faithful per-prefix loop agrees with the single-sweep estimator."""
        geom, sigma, mean = small_field
        u = 0.4
        prefix = confidence_region(sigma, mean, u, algorithm="prefix", n_samples=6000, tile_size=10, rng=2)
        seq = confidence_region(sigma, mean, u, algorithm="sequential", n_samples=6000, tile_size=10, rng=2)
        np.testing.assert_allclose(
            seq.confidence_function, prefix.confidence_function, atol=8e-3
        )

    def test_sequential_with_coarse_levels(self, small_field):
        geom, sigma, mean = small_field
        res = confidence_region(
            sigma, mean, 0.4, algorithm="sequential", n_samples=1000, tile_size=10, rng=2,
            levels=np.array([1, 5, 10, 20]),
        )
        assert res.confidence_function.shape == (geom.n,)

    def test_sequential_sweeps_hand_built_prefix_boxes(self, small_field):
        """The sequential helper is one batched sweep of the prefix boxes, bit for bit."""
        from repro.core.crd import _sequential_joint_probabilities
        from repro.core.factor import factorize
        from repro.core.pmvn import PMVNOptions, pmvn_integrate_batch

        _geom, sigma, _mean = small_field
        n = sigma.shape[0]
        factor = factorize(sigma, method="dense", tile_size=6)
        a = np.linspace(-1.0, 0.5, n)
        levels = np.array([3, 7, 12, 20])
        options = PMVNOptions(n_samples=300, qmc="richtmyer", rng=5)
        prob, err = _sequential_joint_probabilities(factor, a, options, None, levels)
        boxes = []
        for size in levels:
            lower = np.full(n, -np.inf)
            lower[:size] = a[:size]
            boxes.append((lower, np.full(n, np.inf)))
        direct = pmvn_integrate_batch(boxes, factor, options)
        assert np.array_equal(prob[levels - 1], [r.probability for r in direct])
        assert np.array_equal(err[levels - 1], [r.error for r in direct])

    def test_tlr_method_close_to_dense(self, small_field):
        geom, sigma, mean = small_field
        dense = confidence_region(sigma, mean, 0.4, method="dense", n_samples=4000, tile_size=10, rng=4)
        tlr = confidence_region(sigma, mean, 0.4, method="tlr", accuracy=1e-4, n_samples=4000, tile_size=10, rng=4)
        assert np.max(np.abs(dense.confidence_function - tlr.confidence_function)) < 5e-3

    def test_unknown_algorithm(self, small_field):
        geom, sigma, mean = small_field
        with pytest.raises(ValueError):
            confidence_region(sigma, mean, 0.4, algorithm="bisection")

    def test_scalar_mean_accepted(self, small_field):
        geom, sigma, _ = small_field
        res = confidence_region(sigma, 0.0, 0.5, n_samples=500, tile_size=10, rng=0)
        assert res.n == geom.n

    def test_order_is_by_marginal_probability(self, small_field):
        geom, sigma, mean = small_field
        res = confidence_region(sigma, mean, 0.4, n_samples=500, tile_size=10, rng=0)
        ordered = res.marginal_probabilities[res.order]
        assert np.all(np.diff(ordered) <= 1e-12)

    def test_details_contain_diagnostics(self, small_field):
        geom, sigma, mean = small_field
        res = confidence_region(sigma, mean, 0.4, method="tlr", n_samples=500, tile_size=10, rng=0)
        assert res.details["algorithm"] == "prefix"
        assert res.details["tlr_accuracy"] == 1e-3
        assert "timings" in res.details

    def test_from_posterior_wrapper(self, rng):
        geom = Geometry.regular_grid(4, 4)
        kern = ExponentialKernel(1.0, 0.3)
        sigma = build_covariance(kern, geom.locations, nugget=1e-8)
        observed = np.arange(0, 16, 2)
        y = rng.standard_normal(observed.size) + 1.0
        post = posterior_from_observations(sigma, observed, y, noise_std=0.5)
        res = confidence_region_from_posterior(post, threshold=0.5, n_samples=500, tile_size=8, rng=0)
        assert res.n == 16


def _bumps(locations, rng):
    """A few Gaussian bumps above a mildly sloped background."""
    centers = rng.uniform(0.15, 0.85, size=(3, 2))
    heights = rng.uniform(2.0, 3.5, size=3)
    width = rng.uniform(0.07, 0.11)
    dist2 = ((locations[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
    slope = rng.normal(0.0, 0.3, size=2)
    return (heights * np.exp(-dist2 / (2 * width**2))).sum(axis=1) - 1.0 + locations @ slope


class TestTLRDetectionAtDefaultAccuracy:
    def test_reordered_field_factorizes_and_tracks_dense(self):
        """A TLR detection on a 40 x 40 field (range 0.234, nugget 1e-6) at
        the default accuracy 1e-3: truncating each tile against its
        Schur complement keeps the reordered correlation matrix's factor
        positive definite, and the prefix probabilities stay within eight
        combined errors plus 0.01 of the dense ones."""
        locations = Geometry.regular_grid(40, 40).locations
        sigma = build_covariance(ExponentialKernel(1.0, 0.234), locations, nugget=1e-6)
        mean = _bumps(locations, np.random.default_rng([0, 0]))
        runs = {
            method: confidence_region(sigma, mean, 0.0, method=method, n_samples=256, rng=3)
            for method in ("tlr", "dense")
        }
        np.testing.assert_array_equal(runs["tlr"].order, runs["dense"].order)
        tlr, dense = (runs[m].details for m in ("tlr", "dense"))
        gap = np.abs(tlr["prefix_probabilities"] - dense["prefix_probabilities"])
        allowed = 8.0 * np.hypot(tlr["prefix_errors"], dense["prefix_errors"]) + 0.01
        assert np.all(gap <= allowed)
