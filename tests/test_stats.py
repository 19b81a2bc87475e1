"""Unit tests for repro.stats: normal functions, QMC sequences, MLE, posterior."""

import numpy as np
import pytest
from scipy.stats import norm as scipy_norm

from repro.kernels import ExponentialKernel, Geometry, MaternKernel, build_covariance
from repro.fields import sample_gaussian_field
from repro.stats import (
    HaltonSequence,
    RichtmyerLattice,
    SobolSequence,
    UniformRandom,
    fit_kernel,
    indicator_matrix,
    negative_log_likelihood,
    norm_cdf,
    norm_ppf,
    posterior_from_observations,
    qmc_samples,
    sequence_from_name,
)
from repro.stats.qmc import canonical_qmc, first_primes


class TestNormal:
    def test_cdf_matches_scipy(self, rng):
        x = rng.normal(0, 3, 200)
        np.testing.assert_allclose(norm_cdf(x), scipy_norm.cdf(x), atol=1e-12)

    def test_ppf_inverts_cdf(self, rng):
        x = rng.normal(0, 1, 100)
        np.testing.assert_allclose(norm_ppf(norm_cdf(x)), x, atol=1e-9)

    def test_cdf_handles_infinities(self):
        assert norm_cdf(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]

    def test_ppf_is_finite_at_extremes(self):
        vals = norm_ppf(np.array([0.0, 1.0]))
        assert np.all(np.isfinite(vals))
        assert vals[0] < -7 and vals[1] > 7


class TestQMC:
    def test_first_primes(self):
        np.testing.assert_array_equal(first_primes(6), [2, 3, 5, 7, 11, 13])

    @pytest.mark.parametrize("cls", [UniformRandom, RichtmyerLattice, HaltonSequence, SobolSequence])
    def test_points_in_open_unit_cube(self, cls):
        pts = cls(5, rng=0).points(100)
        assert pts.shape == (100, 5)
        assert np.all(pts > 0.0) and np.all(pts < 1.0)

    @pytest.mark.parametrize("name", ["random", "richtmyer", "halton", "sobol"])
    def test_mean_near_half(self, name):
        pts = sequence_from_name(name, 3, rng=1).points(2048)
        np.testing.assert_allclose(pts.mean(axis=0), 0.5, atol=0.05)

    def test_lowdiscrepancy_beats_random_on_uniformity(self):
        """QMC star-discrepancy proxy: 1-D projections closer to uniform."""
        n = 1024
        random_pts = UniformRandom(1, rng=0).points(n)[:, 0]
        qmc_pts = RichtmyerLattice(1, rng=0).points(n)[:, 0]

        def max_gap(x):
            return np.max(np.diff(np.sort(np.concatenate([[0.0], x, [1.0]]))))

        assert max_gap(qmc_pts) < max_gap(random_pts)

    def test_richtmyer_shift_randomizes(self):
        a = RichtmyerLattice(2, rng=0).points(10)
        b = RichtmyerLattice(2, rng=1).points(10)
        assert not np.allclose(a, b)

    def test_halton_deterministic_without_shift(self):
        a = HaltonSequence(3, rng=0, shift=False).points(20)
        b = HaltonSequence(3, rng=99, shift=False).points(20)
        np.testing.assert_allclose(a, b)

    def test_qmc_samples_orientation(self):
        mat = qmc_samples(7, 50, method="halton", rng=0)
        assert mat.shape == (7, 50)

    def test_unknown_sequence(self):
        with pytest.raises(ValueError):
            sequence_from_name("notaseq", 2)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            RichtmyerLattice(0)
        with pytest.raises(ValueError):
            UniformRandom(2).points(0)

    def test_canonical_names(self):
        assert canonical_qmc("Lattice") == "richtmyer"
        assert canonical_qmc("MC") == "random"
        assert canonical_qmc("Sobol") == "sobol"
        with pytest.raises(ValueError, match=r"unknown QMC sequence 'nope'; available: "
                                             r"\['halton', 'lattice', 'mc', 'random', "
                                             r"'richtmyer', 'sobol'\]"):
            canonical_qmc("nope")


def _reference_points(name: str, dim: int, n_points: int, rng: np.random.Generator) -> np.ndarray:
    """Point-major ``(n_points, dim)`` construction, written out step by step:
    ``np.mod`` fractional parts, ``(pts + offset) % 1.0`` shifts, ``np.clip``."""
    name = {"mc": "random", "lattice": "richtmyer"}.get(name, name)
    shift = name in ("richtmyer", "halton")
    if name == "random":
        pts = rng.random((n_points, dim))
    elif name == "richtmyer":
        k = np.arange(1, n_points + 1, dtype=np.float64)[:, None]
        alphas = np.sqrt(first_primes(dim).astype(np.float64))
        pts = np.mod(k * alphas[None, :], 1.0)
    elif name == "halton":
        indices = np.arange(21, 21 + n_points, dtype=np.int64)  # skip = 20
        pts = np.empty((n_points, dim))
        for j, base in enumerate(first_primes(dim)):
            idx, frac, col = indices.copy(), 1.0 / base, np.zeros(n_points)
            while np.any(idx > 0):
                col += frac * (idx % base)
                idx //= base
                frac /= base
            pts[:, j] = col
    else:
        from scipy.stats import qmc as scipy_qmc

        seed = int(rng.integers(0, 2**31 - 1))
        pts = scipy_qmc.Sobol(d=dim, scramble=True, seed=seed).random(n_points)
    if shift:
        pts = (pts + rng.random(dim)) % 1.0
    return np.clip(pts, np.finfo(np.float64).tiny, 1.0 - 1e-16)


@pytest.mark.filterwarnings("ignore:The balance properties of Sobol")
@pytest.mark.parametrize("name", ["random", "mc", "richtmyer", "lattice", "halton", "sobol"])
def test_qmc_samples_bitwise_match_point_major_reference(name):
    """The in-place, dimension-major generation changes no output bit."""
    def check(got, dim, n_points, ref_rng):
        ref = np.ascontiguousarray(_reference_points(name, dim, n_points, ref_rng).T)
        assert got.shape == (dim, n_points) and got.flags.c_contiguous
        assert got.tobytes() == ref.tobytes(), (name, dim, n_points)

    for dim in (1, 2, 7, 255, 1024):
        for n_points in (1, 3, 100, 257, 1000):
            for seed in (0, 1, 12345):
                got = qmc_samples(dim, n_points, method=name, rng=seed)
                check(got, dim, n_points, np.random.default_rng(seed))
            stream, ref_stream = np.random.default_rng(7), np.random.default_rng(7)
            for _draw in range(3):
                check(qmc_samples(dim, n_points, method=name, rng=stream), dim, n_points, ref_stream)


class TestMLE:
    def test_nll_finite_for_valid_kernel(self, grid_geometry, rng):
        kern = ExponentialKernel(1.0, 0.2)
        values = sample_gaussian_field(kern, grid_geometry.locations, rng=rng)[:, 0]
        nll = negative_log_likelihood(kern, grid_geometry.locations, values)
        assert np.isfinite(nll)

    def test_nll_prefers_true_range_over_wrong_range(self):
        geom = Geometry.regular_grid(9, 9)
        true = ExponentialKernel(1.0, 0.2)
        values = sample_gaussian_field(true, geom.locations, rng=3)[:, 0]
        nll_true = negative_log_likelihood(true, geom.locations, values)
        nll_wrong = negative_log_likelihood(ExponentialKernel(1.0, 0.9), geom.locations, values)
        assert nll_true < nll_wrong

    def test_fit_exponential_recovers_range_order_of_magnitude(self):
        geom = Geometry.regular_grid(10, 10)
        true = ExponentialKernel(1.0, 0.15)
        values = sample_gaussian_field(true, geom.locations, rng=7)[:, 0]
        result = fit_kernel(geom.locations, values, family="exponential", max_iterations=60)
        assert 0.03 < result.theta[1] < 0.6
        assert result.n_evaluations > 0

    def test_fit_matern_with_fixed_smoothness(self):
        geom = Geometry.regular_grid(8, 8)
        true = MaternKernel(1.0, 0.2, 1.0)
        values = sample_gaussian_field(true, geom.locations, rng=11)[:, 0]
        result = fit_kernel(
            geom.locations, values, family="matern", fixed_smoothness=1.0, max_iterations=40
        )
        assert len(result.theta) == 3
        assert result.theta[2] == pytest.approx(1.0)

    def test_fit_rejects_unknown_family(self, grid_geometry, rng):
        with pytest.raises(ValueError):
            fit_kernel(grid_geometry.locations, rng.normal(size=grid_geometry.n), family="cosine")

    def test_nll_length_mismatch(self, grid_geometry):
        with pytest.raises(ValueError):
            negative_log_likelihood(ExponentialKernel(), grid_geometry.locations, np.zeros(3))

    def test_nll_infinite_for_a_singular_covariance(self):
        """Two observations at one site without a nugget: no Cholesky, so the
        optimizer sees +inf and backs away."""
        locations = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
        nll = negative_log_likelihood(ExponentialKernel(1.0, 0.2), locations,
                                      np.array([0.1, 0.2, 0.3]), nugget=0.0)
        assert nll == np.inf


class TestPosterior:
    def _setup(self, rng, n_side=6):
        geom = Geometry.regular_grid(n_side, n_side)
        kern = ExponentialKernel(1.0, 0.25)
        sigma = build_covariance(kern, geom.locations, nugget=1e-8)
        latent = sample_gaussian_field(kern, geom.locations, rng=rng)[:, 0]
        observed = np.arange(0, geom.n, 3)
        y = latent[observed] + 0.5 * rng.standard_normal(observed.size)
        return sigma, observed, y, latent

    def test_indicator_matrix(self):
        A = indicator_matrix([1, 3], 5)
        assert A.shape == (2, 5)
        assert A[0, 1] == 1.0 and A[1, 3] == 1.0 and A.sum() == 2.0

    def test_indicator_out_of_range(self):
        with pytest.raises(ValueError):
            indicator_matrix([7], 5)

    def test_posterior_matches_explicit_formula(self, rng):
        """Posterior must equal (Sigma^-1 + A^T A / tau^2)^-1 computed directly."""
        sigma, observed, y, _ = self._setup(rng)
        post = posterior_from_observations(sigma, observed, y, noise_std=0.5)
        n = sigma.shape[0]
        A = indicator_matrix(observed, n)
        expected_cov = np.linalg.inv(np.linalg.inv(sigma) + (1 / 0.25) * A.T @ A)
        np.testing.assert_allclose(post.covariance, expected_cov, atol=1e-6)
        expected_mean = (1 / 0.25) * expected_cov @ A.T @ y
        np.testing.assert_allclose(post.mean, expected_mean, atol=1e-6)

    def test_posterior_covariance_is_spd_and_smaller(self, rng):
        sigma, observed, y, _ = self._setup(rng)
        post = posterior_from_observations(sigma, observed, y, noise_std=0.5)
        eigvals = np.linalg.eigvalsh(post.covariance)
        assert eigvals.min() > 0
        # conditioning on data cannot increase marginal variances
        assert np.all(np.diag(post.covariance) <= np.diag(sigma) + 1e-10)

    def test_posterior_mean_tracks_observations_at_low_noise(self, rng):
        sigma, observed, y, _ = self._setup(rng)
        post = posterior_from_observations(sigma, observed, y, noise_std=0.01)
        np.testing.assert_allclose(post.mean[observed], y, atol=0.05)

    def test_posterior_input_validation(self, rng):
        sigma, observed, y, _ = self._setup(rng)
        with pytest.raises(ValueError):
            posterior_from_observations(sigma, observed, y[:-1])
        with pytest.raises(ValueError):
            posterior_from_observations(sigma, observed, y, noise_std=0.0)
        with pytest.raises(ValueError):
            posterior_from_observations(sigma, np.array([0, 0]), y[:2])


class TestPosteriorUpdatePath:
    """Direct coverage of the seed-era posterior *update* path.

    ``posterior_from_observations`` is the precision-form Gaussian update
    (equations 7-8 of the paper); until now it was only exercised through the
    Figure-1 integration pipeline.  These tests pin down the pieces that
    pipeline never isolates: the non-zero prior-mean branch, sequential
    (one-observation-at-a-time) consistency, and the identity tying the
    posterior covariance to a chain of rank-1 Cholesky downdates — the bridge
    the online-update machinery (:meth:`repro.solver.Model.update`) relies on.
    """

    def _setup(self, rng, n_side=5):
        geom = Geometry.regular_grid(n_side, n_side)
        kern = ExponentialKernel(1.0, 0.25)
        sigma = build_covariance(kern, geom.locations, nugget=1e-8)
        latent = sample_gaussian_field(kern, geom.locations, rng=rng)[:, 0]
        observed = np.array([2, 7, 11, 18])
        y = latent[observed] + 0.5 * rng.standard_normal(observed.size)
        return sigma, observed, y

    def test_scalar_prior_mean_shifts_posterior(self, rng):
        """mu_post = mu + tau^-2 Sigma_post A^T (y - A mu) with mu != 0."""
        sigma, observed, y = self._setup(rng)
        n = sigma.shape[0]
        shifted = posterior_from_observations(sigma, observed, y, noise_std=0.5,
                                              prior_mean=1.7)
        A = indicator_matrix(observed, n)
        expected_cov = np.linalg.inv(np.linalg.inv(sigma) + (1 / 0.25) * A.T @ A)
        mu = np.full(n, 1.7)
        expected_mean = mu + (1 / 0.25) * expected_cov @ A.T @ (y - A @ mu)
        np.testing.assert_allclose(shifted.mean, expected_mean, atol=1e-8)
        # the covariance update never depends on the prior mean
        base = posterior_from_observations(sigma, observed, y, noise_std=0.5)
        np.testing.assert_allclose(shifted.covariance, base.covariance, atol=1e-12)

    def test_vector_prior_mean_matches_scalar_broadcast(self, rng):
        sigma, observed, y = self._setup(rng)
        n = sigma.shape[0]
        scalar = posterior_from_observations(sigma, observed, y, prior_mean=0.4)
        vector = posterior_from_observations(sigma, observed, y,
                                             prior_mean=np.full(n, 0.4))
        np.testing.assert_array_equal(scalar.mean, vector.mean)
        with pytest.raises(ValueError):
            posterior_from_observations(sigma, observed, y,
                                        prior_mean=np.zeros(n - 1))

    def test_sequential_assimilation_matches_joint_update(self, rng):
        """Conditioning one observation at a time equals the joint update.

        Independent observation noise makes the Gaussian update associative:
        feeding the step-k posterior (mean *and* covariance) back in as the
        prior for observation k+1 must land on the same posterior as the
        single joint call.  This is the property the streaming serve path
        leans on and it was never asserted directly.
        """
        sigma, observed, y = self._setup(rng)
        joint = posterior_from_observations(sigma, observed, y, noise_std=0.5)

        mean_seq = np.zeros(sigma.shape[0])
        cov_seq = sigma
        for idx, obs in zip(observed, y):
            step = posterior_from_observations(cov_seq, np.array([idx]),
                                               np.array([obs]), noise_std=0.5,
                                               prior_mean=mean_seq)
            mean_seq, cov_seq = step.mean, step.covariance
        np.testing.assert_allclose(cov_seq, joint.covariance, atol=1e-8)
        np.testing.assert_allclose(mean_seq, joint.mean, atol=1e-8)

    def test_posterior_covariance_is_a_rank_one_downdate_chain(self, rng):
        """Sigma_post == Sigma - sum_k u_k u_k^T with the Kalman gain columns.

        The exact identity that lets :meth:`repro.solver.Model.update` serve
        posterior covariances without refactorizing: each single-location
        observation is a rank-1 *downdate* by
        ``u = Sigma[:, i] / sqrt(Sigma[i, i] + tau^2)``.
        """
        from repro.solver import MVNSolver, SolverConfig

        sigma, observed, y = self._setup(rng)
        joint = posterior_from_observations(sigma, observed, y, noise_std=0.5)

        cov = sigma.copy()
        us = []
        for idx in observed:
            u = cov[:, idx] / np.sqrt(cov[idx, idx] + 0.25)
            us.append(u)
            cov = cov - np.outer(u, u)
        np.testing.assert_allclose(cov, joint.covariance, atol=1e-8)

        # and the factor-level downdate chain agrees with a from-scratch
        # factorization of the posterior covariance
        config = SolverConfig(method="dense", n_samples=400, tile_size=8)
        a = np.full(sigma.shape[0], -np.inf)
        b = joint.mean + 0.5
        with MVNSolver(config) as solver:
            model = solver.model(sigma)
            for u in us:
                model = model.update(u, downdate=True)
            chained = model.probability(a - joint.mean, b - joint.mean, rng=3)
            fresh = solver.model(joint.covariance).probability(
                a - joint.mean, b - joint.mean, rng=3)
        assert abs(chained.probability - fresh.probability) <= 1e-9

    def test_indicator_matrix_rejects_2d_indices(self):
        with pytest.raises(ValueError):
            indicator_matrix(np.array([[0, 1]]), 4)

    def test_empty_observed_indices_rejected(self, rng):
        sigma, _, _ = self._setup(rng)
        with pytest.raises(ValueError):
            posterior_from_observations(sigma, np.array([], dtype=int),
                                        np.array([]))
