"""Unit tests for repro.kernels: geometry, covariance kernels, matrix assembly."""

import numpy as np
import pytest

from repro.kernels import (
    ExponentialKernel,
    GaussianKernel,
    Geometry,
    MaternKernel,
    PoweredExponentialKernel,
    add_nugget,
    build_covariance,
    build_covariance_tile,
    build_tiled_covariance,
    cross_distances,
    grid_locations,
    irregular_locations,
    pairwise_distances,
)


class TestDistances:
    def test_pairwise_symmetric_zero_diagonal(self, rng):
        locs = rng.random((15, 2))
        d = pairwise_distances(locs)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)

    def test_pairwise_matches_bruteforce(self, rng):
        locs = rng.random((10, 3))
        d = pairwise_distances(locs)
        brute = np.linalg.norm(locs[:, None, :] - locs[None, :, :], axis=2)
        np.testing.assert_allclose(d, brute, atol=1e-10)

    def test_cross_distances_shape(self, rng):
        a, b = rng.random((4, 2)), rng.random((7, 2))
        assert cross_distances(a, b).shape == (4, 7)

    def test_cross_distances_dim_mismatch(self, rng):
        with pytest.raises(ValueError, match="spatial dimension"):
            cross_distances(rng.random((3, 2)), rng.random((3, 3)))


class TestLocations:
    def test_grid_count_and_bounds(self):
        locs = grid_locations(4, 3, extent=(0, 2, 0, 1))
        assert locs.shape == (12, 2)
        assert locs[:, 0].max() == pytest.approx(2.0)
        assert locs[:, 1].max() == pytest.approx(1.0)

    def test_grid_invalid_extent(self):
        with pytest.raises(ValueError):
            grid_locations(3, 3, extent=(1, 0, 0, 1))

    def test_irregular_count_and_range(self):
        locs = irregular_locations(50, rng=0)
        assert locs.shape == (50, 2)
        assert locs.min() >= 0.0 and locs.max() <= 1.0

    def test_irregular_no_duplicates_with_jitter(self):
        locs = irregular_locations(200, rng=1, jitter_grid=True)
        assert np.unique(locs, axis=0).shape[0] == 200

    def test_irregular_uniform_mode(self):
        locs = irregular_locations(30, rng=2, jitter_grid=False)
        assert locs.shape == (30, 2)


class TestGeometry:
    def test_regular_grid_image_roundtrip(self):
        geom = Geometry.regular_grid(4, 3)
        values = np.arange(geom.n, dtype=float)
        img = geom.as_image(values)
        assert img.shape == (3, 4)
        assert img[0, 0] == 0.0

    def test_grid_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            Geometry(np.zeros((5, 2)), grid_shape=(2, 2))

    def test_subset_and_reorder(self):
        geom = Geometry.regular_grid(3, 3)
        sub = geom.subset([0, 2, 4])
        assert sub.n == 3
        perm = np.arange(geom.n)[::-1]
        re = geom.reorder(perm)
        np.testing.assert_allclose(re.locations[0], geom.locations[-1])

    def test_reorder_rejects_non_permutation(self):
        geom = Geometry.regular_grid(2, 2)
        with pytest.raises(ValueError):
            geom.reorder([0, 0, 1, 2])

    def test_as_image_requires_grid(self):
        geom = Geometry.irregular(10, rng=0)
        with pytest.raises(ValueError):
            geom.as_image(np.zeros(10))

    def test_distances_shape(self, grid_geometry):
        assert grid_geometry.distances().shape == (30, 30)


class TestKernels:
    @pytest.mark.parametrize(
        "kernel",
        [
            MaternKernel(1.5, 0.2, 1.0),
            ExponentialKernel(2.0, 0.3),
            GaussianKernel(1.0, 0.1),
            PoweredExponentialKernel(1.0, 0.2, 1.5),
        ],
    )
    def test_variance_at_zero(self, kernel):
        assert kernel(np.array([0.0]))[0] == pytest.approx(kernel.variance)

    @pytest.mark.parametrize(
        "kernel",
        [
            MaternKernel(1.0, 0.2, 0.8),
            ExponentialKernel(1.0, 0.3),
            GaussianKernel(1.0, 0.1),
        ],
    )
    def test_monotone_decreasing(self, kernel):
        h = np.linspace(0, 2, 50)
        vals = kernel(h)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_matern_half_equals_exponential(self):
        """Matérn with smoothness 1/2 reduces to the exponential kernel."""
        h = np.linspace(0, 1, 20)
        matern = MaternKernel(1.3, 0.25, 0.5)(h)
        expo = ExponentialKernel(1.3, 0.25)(h)
        np.testing.assert_allclose(matern, expo, rtol=1e-10)

    def test_matern_large_distance_underflow_is_zero(self):
        val = MaternKernel(1.0, 0.001, 2.5)(np.array([1e4]))
        assert val[0] == 0.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            ExponentialKernel()(np.array([-0.1]))

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (MaternKernel, {"sigma2": -1.0}),
            (ExponentialKernel, {"range_": 0.0}),
            (GaussianKernel, {"sigma2": 0.0}),
            (PoweredExponentialKernel, {"power": 2.5}),
        ],
    )
    def test_invalid_parameters(self, cls, kwargs):
        with pytest.raises(ValueError):
            cls(**kwargs)

    def test_effective_range_orders_with_range_parameter(self):
        short = ExponentialKernel(1.0, 0.05).effective_range()
        long = ExponentialKernel(1.0, 0.3).effective_range()
        assert long > short

    def test_correlation_normalized(self):
        k = ExponentialKernel(4.0, 0.2)
        assert k.correlation(np.array([0.0]))[0] == pytest.approx(1.0)


class TestCovarianceBuild:
    def test_dense_matrix_is_spd(self, grid_geometry, exp_kernel):
        sigma = build_covariance(exp_kernel, grid_geometry.locations, nugget=1e-10)
        assert np.allclose(sigma, sigma.T)
        eigvals = np.linalg.eigvalsh(sigma)
        assert eigvals.min() > 0

    def test_diagonal_is_variance_plus_nugget(self, grid_geometry):
        kern = ExponentialKernel(2.0, 0.2)
        sigma = build_covariance(kern, grid_geometry.locations, nugget=0.1)
        np.testing.assert_allclose(np.diag(sigma), 2.1)

    def test_negative_nugget_rejected(self, grid_geometry, exp_kernel):
        with pytest.raises(ValueError):
            build_covariance(exp_kernel, grid_geometry.locations, nugget=-1.0)

    def test_tile_matches_dense_block(self, grid_geometry, exp_kernel):
        sigma = build_covariance(exp_kernel, grid_geometry.locations)
        tile = build_covariance_tile(exp_kernel, grid_geometry.locations, (5, 12), (0, 7))
        np.testing.assert_allclose(tile, sigma[5:12, 0:7], atol=1e-12)

    def test_tile_nugget_only_on_global_diagonal(self, grid_geometry, exp_kernel):
        tile = build_covariance_tile(exp_kernel, grid_geometry.locations, (3, 6), (3, 6), nugget=0.5)
        np.testing.assert_allclose(np.diag(tile), exp_kernel.variance + 0.5)
        off = build_covariance_tile(exp_kernel, grid_geometry.locations, (6, 9), (0, 3), nugget=0.5)
        sigma = build_covariance(exp_kernel, grid_geometry.locations)
        np.testing.assert_allclose(off, sigma[6:9, 0:3], atol=1e-12)

    def test_tile_range_validation(self, grid_geometry, exp_kernel):
        with pytest.raises(ValueError):
            build_covariance_tile(exp_kernel, grid_geometry.locations, (0, 100), (0, 5))

    def test_tiled_generator_covers_lower_triangle(self, grid_geometry, exp_kernel):
        sigma = build_covariance(exp_kernel, grid_geometry.locations)
        reconstructed = np.zeros_like(sigma)
        for i, j, tile in build_tiled_covariance(exp_kernel, grid_geometry.locations, 8):
            r0, r1 = 8 * i, min(8 * (i + 1), sigma.shape[0])
            c0, c1 = 8 * j, min(8 * (j + 1), sigma.shape[0])
            reconstructed[r0:r1, c0:c1] = tile
        lower = np.tril(sigma)
        np.testing.assert_allclose(np.tril(reconstructed), lower, atol=1e-12)

    def test_add_nugget_returns_copy(self, small_spd):
        out = add_nugget(small_spd, 0.5)
        assert out is not small_spd
        np.testing.assert_allclose(np.diag(out), np.diag(small_spd) + 0.5)
        with pytest.raises(ValueError):
            add_nugget(small_spd, -0.1)
