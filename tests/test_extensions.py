"""Tests for the extension features: variable reordering, connected-region
analysis, TLR solves, and mixed-precision factorization."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from repro.core import factorize, pmvn_integrate, PMVNOptions
from repro.excursion import RegionSummary, label_regions, region_summaries
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.mvn import (
    apply_ordering,
    gb_reordering,
    inverse_permutation,
    mvn_sov_vectorized,
    univariate_reordering,
)
from repro.tlr import (
    TLRMatrix,
    tlr_cholesky,
    tlr_lower_solve,
    tlr_matmat,
    tlr_matvec,
    tlr_quadratic_form,
)


@pytest.fixture
def spd_cov():
    geom = Geometry.regular_grid(7, 7)
    return build_covariance(ExponentialKernel(1.0, 0.25), geom.locations, nugget=1e-8)


class TestReordering:
    def test_univariate_ordering_sorts_by_interval_width(self, rng):
        sigma = np.diag(rng.uniform(0.5, 2.0, 6))
        a = np.array([-0.1, -np.inf, -1.0, -0.5, -np.inf, -2.0])
        b = np.array([0.1, 0.0, 1.0, 0.5, np.inf, 2.0])
        order = univariate_reordering(a, b, sigma)
        std = np.sqrt(np.diag(sigma))
        from repro.stats.normal import norm_cdf

        widths = norm_cdf(b / std) - norm_cdf(a / std)
        assert np.all(np.diff(widths[order]) >= -1e-12)

    def test_orderings_are_permutations(self, spd_cov, rng):
        n = spd_cov.shape[0]
        a = rng.normal(-1, 0.5, n)
        b = a + rng.uniform(0.5, 2.0, n)
        for order in (univariate_reordering(a, b, spd_cov), gb_reordering(a, b, spd_cov)):
            assert sorted(order.tolist()) == list(range(n))

    def test_inverse_permutation(self, rng):
        order = rng.permutation(10)
        inv = inverse_permutation(order)
        np.testing.assert_array_equal(order[inv], np.arange(10))
        np.testing.assert_array_equal(inv[order], np.arange(10))

    def test_apply_ordering_preserves_probability(self, rng):
        """The MVN probability is invariant under a joint permutation."""
        a_mat = rng.standard_normal((6, 6))
        sigma = a_mat @ a_mat.T + 6 * np.eye(6)
        a = np.full(6, -np.inf)
        b = rng.standard_normal(6)
        ref = multivariate_normal(cov=sigma).cdf(b)
        for reorder in (univariate_reordering, gb_reordering):
            order = reorder(a, b, sigma)
            a2, b2, sigma2 = apply_ordering(a, b, sigma, order)
            res = mvn_sov_vectorized(a2, b2, sigma2, n_samples=4000, rng=0)
            assert res.probability == pytest.approx(ref, abs=5e-3)

    def test_gb_reordering_reduces_estimator_variance(self, rng):
        """Reordering should not increase the chain variance of the SOV estimator."""
        geom = Geometry.regular_grid(5, 5)
        sigma = build_covariance(ExponentialKernel(1.0, 0.3), geom.locations, nugget=1e-8)
        n = sigma.shape[0]
        a = np.full(n, -np.inf)
        b = rng.uniform(-1.5, 0.5, n)

        def chain_std(a_, b_, s_):
            res = mvn_sov_vectorized(a_, b_, s_, n_samples=4000, rng=3, return_chain_values=True)
            return res.details["chain_values"].std()

        base = chain_std(a, b, sigma)
        order = gb_reordering(a, b, sigma)
        reordered = chain_std(*apply_ordering(a, b, sigma, order))
        assert reordered <= base * 1.25


class TestRegionLabeling:
    def test_single_region(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:3, 1:4] = True
        labels = label_regions(mask)
        assert labels.max() == 1
        assert (labels > 0).sum() == mask.sum()

    def test_two_diagonal_regions_4_vs_8_connectivity(self):
        mask = np.array([[1, 0], [0, 1]], dtype=bool)
        assert label_regions(mask, connectivity=4).max() == 2
        assert label_regions(mask, connectivity=8).max() == 1

    def test_empty_mask(self):
        labels = label_regions(np.zeros((3, 3), dtype=bool))
        assert labels.max() == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            label_regions(np.zeros(4, dtype=bool))
        with pytest.raises(ValueError):
            label_regions(np.zeros((2, 2), dtype=bool), connectivity=6)

    def test_summaries_sorted_by_size(self):
        mask = np.zeros((6, 8), dtype=bool)
        mask[0:2, 0:2] = True       # 4 cells
        mask[4:6, 2:7] = True       # 10 cells
        summaries = region_summaries(mask)
        assert [s.size for s in summaries] == [10, 4]
        assert summaries[0].bounding_box == (4, 5, 2, 6)
        assert isinstance(summaries[0], RegionSummary)

    def test_summaries_from_vector_with_geometry(self):
        geom = Geometry.regular_grid(4, 3)
        values = np.zeros(geom.n)
        values[[0, 1, 4]] = 1.0
        summaries = region_summaries(values, geometry=geom)
        assert summaries[0].size == 3

    def test_min_size_filter(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        mask[2:4, 2:4] = True
        summaries = region_summaries(mask, min_size=2)
        assert len(summaries) == 1
        assert summaries[0].size == 4

    def test_vector_without_geometry_rejected(self):
        with pytest.raises(ValueError):
            region_summaries(np.zeros(5))


class TestTLROperations:
    @pytest.fixture
    def tlr_and_dense(self, spd_cov):
        tlr = TLRMatrix.from_dense(spd_cov, tile_size=14, accuracy=1e-9)
        return tlr, spd_cov

    def test_matvec_matches_dense(self, tlr_and_dense, rng):
        tlr, dense = tlr_and_dense
        x = rng.standard_normal(dense.shape[0])
        np.testing.assert_allclose(tlr_matvec(tlr, x), dense @ x, atol=1e-6)

    def test_matmat_matches_dense(self, tlr_and_dense, rng):
        tlr, dense = tlr_and_dense
        x = rng.standard_normal((dense.shape[0], 3))
        np.testing.assert_allclose(tlr_matmat(tlr, x), dense @ x, atol=1e-6)

    def test_lower_factor_matvec(self, tlr_and_dense, rng):
        tlr, dense = tlr_and_dense
        factor = tlr_cholesky(tlr)
        x = rng.standard_normal(dense.shape[0])
        expected = np.linalg.cholesky(dense) @ x
        np.testing.assert_allclose(tlr_matvec(factor, x, lower_factor=True), expected, atol=1e-5)

    def test_lower_solve_matches_dense(self, tlr_and_dense, rng):
        tlr, dense = tlr_and_dense
        factor = tlr_cholesky(tlr)
        rhs = rng.standard_normal(dense.shape[0])
        x = tlr_lower_solve(factor, rhs)
        np.testing.assert_allclose(np.linalg.cholesky(dense) @ x, rhs, atol=1e-5)

    def test_lower_solve_matrix_rhs(self, tlr_and_dense, rng):
        tlr, dense = tlr_and_dense
        factor = tlr_cholesky(tlr)
        rhs = rng.standard_normal((dense.shape[0], 4))
        x = tlr_lower_solve(factor, rhs)
        assert x.shape == rhs.shape

    def test_quadratic_form_matches_direct(self, tlr_and_dense, rng):
        tlr, dense = tlr_and_dense
        factor = tlr_cholesky(tlr)
        z = rng.standard_normal(dense.shape[0])
        expected = float(z @ np.linalg.solve(dense, z))
        assert tlr_quadratic_form(factor, z) == pytest.approx(expected, rel=1e-5)

    def test_shape_validation(self, tlr_and_dense):
        tlr, dense = tlr_and_dense
        with pytest.raises(ValueError):
            tlr_matvec(tlr, np.zeros(3))
        with pytest.raises(ValueError):
            tlr_lower_solve(tlr, np.zeros(3))


class TestMixedPrecision:
    def test_single_precision_factor_close_to_double(self, spd_cov):
        double = factorize(spd_cov, method="dense", tile_size=14, precision="double")
        single = factorize(spd_cov, method="dense", tile_size=14, precision="single")
        diff = np.max(np.abs(double.to_dense() - single.to_dense()))
        assert 0.0 < diff < 1e-4

    def test_single_precision_probability_accuracy(self, spd_cov):
        """The paper's future-work claim: reduced precision barely moves the
        MVN probability at the accuracy levels the application needs."""
        n = spd_cov.shape[0]
        a, b = np.full(n, -np.inf), np.full(n, 0.5)
        options = PMVNOptions(n_samples=2000, rng=4)
        probs = {}
        for precision in ("double", "single"):
            factor = factorize(spd_cov, method="tlr", tile_size=14, accuracy=1e-4, precision=precision)
            probs[precision] = pmvn_integrate(a, b, factor, options).probability
        assert probs["single"] == pytest.approx(probs["double"], abs=1e-4)

    def test_half_precision_larger_error_than_single(self, spd_cov):
        dense = factorize(spd_cov, method="dense", tile_size=14, precision="double").to_dense()
        single = factorize(spd_cov, method="dense", tile_size=14, precision="single").to_dense()
        half = factorize(spd_cov, method="dense", tile_size=14, precision="half").to_dense()
        assert np.max(np.abs(half - dense)) > np.max(np.abs(single - dense))

    def test_unknown_precision_rejected(self, spd_cov):
        with pytest.raises(ValueError):
            factorize(spd_cov, precision="quad")
