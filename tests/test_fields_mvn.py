"""Tests for Gaussian field sampling and the baseline MVN estimators."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from repro.fields import (
    sample_from_cholesky,
    sample_from_covariance,
    sample_gaussian_field,
)
from repro.kernels import ExponentialKernel, Geometry
from repro.mvn import MVNResult, mvn_mc, mvn_sov, mvn_sov_vectorized, sov_transform_limits


class TestFieldSampling:
    def test_sample_shape(self, small_spd, rng):
        samples = sample_from_covariance(small_spd, n_samples=5, rng=rng)
        assert samples.shape == (8, 5)

    def test_sample_covariance_converges(self, rng):
        sigma = np.array([[2.0, 0.8], [0.8, 1.0]])
        samples = sample_from_covariance(sigma, n_samples=40_000, rng=rng)
        emp = np.cov(samples)
        np.testing.assert_allclose(emp, sigma, atol=0.08)

    def test_sample_mean_shift(self, small_spd, rng):
        mean = np.arange(8.0)
        samples = sample_from_covariance(small_spd, n_samples=20_000, mean=mean, rng=rng)
        np.testing.assert_allclose(samples.mean(axis=1), mean, atol=0.15)

    def test_sample_from_cholesky_matches_covariance_sampler(self, small_spd):
        factor = np.linalg.cholesky(small_spd)
        a = sample_from_cholesky(factor, n_samples=3, rng=42)
        b = sample_from_covariance(small_spd, n_samples=3, rng=42)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_semidefinite_fallback(self, rng):
        # rank-deficient covariance: Cholesky fails, eigen fallback must work
        u = rng.standard_normal((6, 2))
        sigma = u @ u.T + 1e-14 * np.eye(6)
        samples = sample_from_covariance(sigma, n_samples=4, rng=rng)
        assert np.all(np.isfinite(samples))

    def test_singular_covariance_samples_its_subspace(self):
        """Cholesky fails on an exactly rank-1 covariance; the eigen factor
        still samples it: every draw repeats one N(mean, 2) value."""
        samples = sample_from_covariance(np.full((4, 4), 2.0), n_samples=4000, mean=1.0, rng=0)
        np.testing.assert_allclose(samples, np.broadcast_to(samples[0], samples.shape), atol=1e-12)
        assert samples[0].var() == pytest.approx(2.0, rel=0.1)
        assert samples[0].mean() == pytest.approx(1.0, abs=0.1)

    def test_gaussian_field_variance(self, rng):
        geom = Geometry.regular_grid(7, 7)
        kern = ExponentialKernel(2.0, 0.2)
        samples = sample_gaussian_field(kern, geom.locations, n_samples=4000, rng=rng)
        assert samples.shape == (49, 4000)
        np.testing.assert_allclose(samples.var(axis=1).mean(), 2.0, rtol=0.1)

    def test_invalid_inputs(self, small_spd):
        with pytest.raises(ValueError):
            sample_from_covariance(small_spd, n_samples=0)
        with pytest.raises(ValueError):
            sample_from_cholesky(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            sample_from_covariance(small_spd, mean=np.zeros(3))

    def test_sample_count_follows_the_count_rule(self):
        samples = sample_from_covariance(np.eye(3), n_samples=1e3, rng=0)
        assert samples.shape == (3, 1000)
        for bad in (0, 2.5, True):
            with pytest.raises(ValueError, match="n_samples"):
                sample_from_covariance(np.eye(3), n_samples=bad)


class TestMVNResult:
    def test_float_conversion(self):
        res = MVNResult(0.25, 0.01, 100, 3, "mc")
        assert float(res) == pytest.approx(0.25)

    def test_repr_contains_method(self):
        assert "sov" in repr(MVNResult(0.1, 0.0, 10, 2, "sov"))


class TestMCBaseline:
    def test_univariate_matches_normal_cdf(self):
        res = mvn_mc([-np.inf], [0.7], np.array([[1.0]]), n_samples=200_000, rng=0)
        assert res.probability == pytest.approx(norm.cdf(0.7), abs=0.01)

    def test_bivariate_matches_scipy(self):
        sigma = np.array([[1.0, 0.6], [0.6, 1.0]])
        b = np.array([0.3, -0.2])
        ref = multivariate_normal(cov=sigma).cdf(b)
        res = mvn_mc(np.full(2, -np.inf), b, sigma, n_samples=200_000, rng=1)
        assert res.probability == pytest.approx(ref, abs=0.01)

    def test_error_estimate_scale(self):
        res = mvn_mc([-1.0], [1.0], np.array([[1.0]]), n_samples=10_000, rng=2)
        assert 0.0 < res.error < 0.02

    def test_mean_shift(self):
        res = mvn_mc([-np.inf], [0.0], np.array([[1.0]]), n_samples=100_000, mean=1.0, rng=3)
        assert res.probability == pytest.approx(norm.cdf(-1.0), abs=0.01)

    def test_validates_covariance(self):
        with pytest.raises(ValueError):
            mvn_mc([0.0], [1.0], np.array([[0.0]]))


class TestSOV:
    def _reference(self, sigma, b):
        return multivariate_normal(cov=sigma, allow_singular=False).cdf(b)

    def test_limit_transform_requires_spd(self):
        with pytest.raises(ValueError):
            sov_transform_limits([0.0, 0.0], [1.0, 1.0], np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_transform_absorbs_mean(self, small_spd):
        a, b, factor = sov_transform_limits(np.zeros(8), np.ones(8), small_spd, mean=0.5)
        np.testing.assert_allclose(a, -0.5)
        np.testing.assert_allclose(b, 0.5)
        np.testing.assert_allclose(factor @ factor.T, small_spd, atol=1e-9)

    @pytest.mark.parametrize("estimator", [mvn_sov, mvn_sov_vectorized])
    def test_matches_scipy_orthant(self, estimator, rng):
        a_mat = rng.standard_normal((5, 5))
        sigma = a_mat @ a_mat.T + 5 * np.eye(5)
        b = rng.standard_normal(5)
        ref = self._reference(sigma, b)
        res = estimator(np.full(5, -np.inf), b, sigma, n_samples=3000, rng=0)
        assert res.probability == pytest.approx(ref, abs=5e-3)

    def test_vectorized_matches_scalar_loop(self, rng):
        a_mat = rng.standard_normal((4, 4))
        sigma = a_mat @ a_mat.T + 4 * np.eye(4)
        a = np.full(4, -1.0)
        b = np.full(4, 1.5)
        slow = mvn_sov(a, b, sigma, n_samples=800, rng=7)
        fast = mvn_sov_vectorized(a, b, sigma, n_samples=800, rng=7)
        assert fast.probability == pytest.approx(slow.probability, rel=1e-10)

    def test_two_sided_interval_independent_case(self):
        """Independent components: probability factorizes exactly."""
        sigma = np.diag([1.0, 4.0, 0.25])
        a = np.array([-1.0, -2.0, -0.5])
        b = np.array([1.0, 2.0, 0.5])
        expected = np.prod(norm.cdf(b / np.sqrt(np.diag(sigma))) - norm.cdf(a / np.sqrt(np.diag(sigma))))
        res = mvn_sov_vectorized(a, b, sigma, n_samples=4000, rng=1)
        assert res.probability == pytest.approx(expected, abs=2e-3)

    def test_qmc_converges_faster_than_mc_sampling(self, rng):
        """QMC (Richtmyer) error should beat plain pseudo-random sampling."""
        a_mat = rng.standard_normal((6, 6))
        sigma = a_mat @ a_mat.T + 6 * np.eye(6)
        b = np.full(6, 0.5)
        ref = self._reference(sigma, b)
        err_qmc, err_mc = [], []
        for seed in range(5):
            err_qmc.append(abs(mvn_sov_vectorized(np.full(6, -np.inf), b, sigma, 2000, qmc="richtmyer", rng=seed).probability - ref))
            err_mc.append(abs(mvn_sov_vectorized(np.full(6, -np.inf), b, sigma, 2000, qmc="random", rng=seed).probability - ref))
        assert np.median(err_qmc) <= np.median(err_mc) * 1.5

    def test_mean_handling(self, rng):
        a_mat = rng.standard_normal((3, 3))
        sigma = a_mat @ a_mat.T + 3 * np.eye(3)
        mean = np.array([0.5, -0.5, 1.0])
        b = np.array([1.0, 0.0, 2.0])
        ref = multivariate_normal(mean=mean, cov=sigma).cdf(b)
        res = mvn_sov_vectorized(np.full(3, -np.inf), b, sigma, n_samples=4000, mean=mean, rng=0)
        assert res.probability == pytest.approx(ref, abs=5e-3)

    def test_chain_values_returned_when_requested(self, small_spd):
        res = mvn_sov_vectorized(
            np.full(8, -1.0), np.full(8, 1.0), small_spd, n_samples=500, rng=0, return_chain_values=True
        )
        assert res.details["chain_values"].shape == (500,)

    def test_error_decreases_with_samples(self, small_spd):
        small = mvn_sov_vectorized(np.full(8, -1.0), np.full(8, 1.0), small_spd, n_samples=200, rng=0)
        large = mvn_sov_vectorized(np.full(8, -1.0), np.full(8, 1.0), small_spd, n_samples=20_000, rng=0)
        assert large.error < small.error
