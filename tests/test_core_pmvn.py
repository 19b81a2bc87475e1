"""Tests for the core PMVN machinery: QMC kernel, factor adapters, the sweep."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from repro.core import (
    DenseTileFactor,
    PMVNOptions,
    TLRFactor,
    factorize,
    mvn_probability,
    pmvn_integrate,
    pmvn_integrate_batch,
    qmc_kernel_tile,
)
from repro.core import pmvn as pmvn_module
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.mvn import mvn_sov_vectorized
from repro.runtime import Runtime
from repro.stats.qmc import qmc_samples
from repro.utils.timers import collect_timings


@pytest.fixture
def spd20(rng):
    geom = Geometry.regular_grid(5, 4)
    return build_covariance(ExponentialKernel(1.0, 0.3), geom.locations, nugget=1e-8)


def scipy_ref(sigma, a, b, mean=None):
    """Reference probability via scipy (CDF differences for small dims)."""
    n = sigma.shape[0]
    mean = np.zeros(n) if mean is None else mean
    mvn = multivariate_normal(mean=mean, cov=sigma, allow_singular=False)
    if np.all(np.isneginf(a)):
        return mvn.cdf(b)
    # inclusion-exclusion is exponential; only used for tiny n in tests
    raise NotImplementedError


class TestQMCKernelTile:
    def test_single_tile_matches_vectorized_sov(self, small_spd):
        """One tile covering the whole problem must reproduce the SOV recursion."""
        n = small_spd.shape[0]
        n_chains = 400
        factor = np.linalg.cholesky(small_spd)
        r_tile = qmc_samples(n, n_chains, method="richtmyer", rng=3)
        b = np.full(n, 0.8)
        a = np.full(n, -np.inf)
        a_tile = np.repeat(a[:, None], n_chains, axis=1)
        b_tile = np.repeat(b[:, None], n_chains, axis=1)
        p_seg = np.ones(n_chains)
        y_tile = np.zeros((n, n_chains))
        qmc_kernel_tile(factor, r_tile, a_tile, b_tile, p_seg, y_tile)

        ref = mvn_sov_vectorized(a, b, small_spd, n_samples=n_chains, rng=3)
        assert p_seg.mean() == pytest.approx(ref.probability, rel=1e-10)

    def test_prefix_accumulation(self, small_spd):
        n = small_spd.shape[0]
        n_chains = 200
        factor = np.linalg.cholesky(small_spd)
        r_tile = qmc_samples(n, n_chains, rng=0)
        a_tile = np.full((n, n_chains), -1.0)
        b_tile = np.full((n, n_chains), 1.0)
        p_seg = np.ones(n_chains)
        y_tile = np.zeros((n, n_chains))
        prefix = np.zeros(n)
        qmc_kernel_tile(factor, r_tile, a_tile, b_tile, p_seg, y_tile, prefix_sum=prefix)
        # last prefix entry equals the final probability sum, prefixes decrease
        assert prefix[-1] == pytest.approx(p_seg.sum())
        assert np.all(np.diff(prefix) <= 1e-12)

    def test_shape_validation(self, small_spd):
        factor = np.linalg.cholesky(small_spd)
        with pytest.raises(ValueError):
            qmc_kernel_tile(factor, np.zeros((8, 4)), np.zeros((8, 5)), np.zeros((8, 4)), np.ones(4), np.zeros((8, 4)))
        with pytest.raises(ValueError):
            qmc_kernel_tile(factor[:, :5], np.zeros((8, 4)), np.zeros((8, 4)), np.zeros((8, 4)), np.ones(4), np.zeros((8, 4)))

    def test_nonpositive_diagonal_rejected(self):
        bad = np.eye(3)
        bad[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            qmc_kernel_tile(bad, np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)), np.ones(2), np.zeros((3, 2)))


class TestFactorAdapters:
    def test_dense_factor_roundtrip(self, spd20):
        factor = factorize(spd20, method="dense", tile_size=7)
        assert isinstance(factor, DenseTileFactor)
        np.testing.assert_allclose(factor.to_dense(), np.linalg.cholesky(spd20), atol=1e-9)
        assert factor.n == spd20.shape[0]
        assert factor.n_blocks == 3

    def test_tlr_factor_roundtrip(self, spd20):
        factor = factorize(spd20, method="tlr", tile_size=7, accuracy=1e-10)
        assert isinstance(factor, TLRFactor)
        np.testing.assert_allclose(factor.to_dense(), np.linalg.cholesky(spd20), atol=1e-6)

    def test_apply_offdiag_dense(self, spd20, rng):
        factor = factorize(spd20, method="dense", tile_size=7)
        y = rng.standard_normal((7, 5))
        expected = np.linalg.cholesky(spd20)[7:14, 0:7] @ y
        np.testing.assert_allclose(factor.apply_offdiag(1, 0, y), expected, atol=1e-9)

    def test_apply_offdiag_tlr_close_to_dense(self, spd20, rng):
        dense = factorize(spd20, method="dense", tile_size=7)
        tlr = factorize(spd20, method="tlr", tile_size=7, accuracy=1e-8)
        y = rng.standard_normal((7, 4))
        np.testing.assert_allclose(tlr.apply_offdiag(2, 0, y), dense.apply_offdiag(2, 0, y), atol=1e-5)

    def test_apply_offdiag_rejects_upper(self, spd20, rng):
        factor = factorize(spd20, method="dense", tile_size=7)
        with pytest.raises(ValueError):
            factor.apply_offdiag(0, 1, rng.standard_normal((7, 2)))

    def test_unknown_method(self, spd20):
        with pytest.raises(ValueError):
            factorize(spd20, method="hodlr")

    def test_default_tile_size_heuristic(self, spd20):
        factor = factorize(spd20)
        assert 1 <= factor.tile_size <= spd20.shape[0]

    def test_timings_populated(self, spd20):
        with collect_timings() as reg:
            factorize(spd20, method="dense", tile_size=10)
        assert reg.count("factorization") == 1


class TestPMVNIntegration:
    def test_matches_scipy_cdf(self, rng):
        a_mat = rng.standard_normal((10, 10))
        sigma = a_mat @ a_mat.T + 10 * np.eye(10)
        b = rng.standard_normal(10) * 1.5
        ref = scipy_ref(sigma, np.full(10, -np.inf), b)
        res = mvn_probability(np.full(10, -np.inf), b, sigma, n_samples=4000, tile_size=3, rng=0)
        assert res.probability == pytest.approx(ref, abs=5e-3)

    def test_matches_vectorized_sov_exactly_single_row_block(self, spd20):
        """With one row block the tiled sweep is the vectorized SOV."""
        n = spd20.shape[0]
        b = np.full(n, 0.5)
        a = np.full(n, -np.inf)
        res_tile = mvn_probability(a, b, spd20, n_samples=1000, tile_size=n, rng=5)
        res_ref = mvn_sov_vectorized(a, b, spd20, n_samples=1000, rng=5)
        assert res_tile.probability == pytest.approx(res_ref.probability, rel=1e-10)

    @pytest.mark.parametrize("tile_size", [4, 7, 11])
    def test_tile_size_invariance(self, spd20, tile_size):
        """The estimate must not depend on the tiling (same QMC stream)."""
        n = spd20.shape[0]
        a, b = np.full(n, -np.inf), np.full(n, 0.4)
        res = mvn_probability(a, b, spd20, n_samples=2000, tile_size=tile_size, rng=9)
        ref = mvn_probability(a, b, spd20, n_samples=2000, tile_size=n, rng=9)
        assert res.probability == pytest.approx(ref.probability, rel=1e-9)

    def test_chain_block_invariance(self, spd20):
        n = spd20.shape[0]
        a, b = np.full(n, -1.0), np.full(n, 1.0)
        factor = factorize(spd20, method="dense", tile_size=7)
        res1 = pmvn_integrate(a, b, factor, PMVNOptions(n_samples=1200, chain_block=1200, rng=2))
        res2 = pmvn_integrate(a, b, factor, PMVNOptions(n_samples=1200, chain_block=100, rng=2))
        assert res1.probability == pytest.approx(res2.probability, rel=1e-9)

    def test_parallel_runtime_matches_serial(self, spd20):
        n = spd20.shape[0]
        a, b = np.full(n, -np.inf), np.full(n, 0.3)
        serial = mvn_probability(a, b, spd20, n_samples=1500, tile_size=5, rng=4)
        parallel = mvn_probability(a, b, spd20, n_samples=1500, tile_size=5, rng=4, runtime=Runtime(n_workers=4))
        assert parallel.probability == pytest.approx(serial.probability, rel=1e-9)

    def test_tlr_close_to_dense(self, spd20):
        n = spd20.shape[0]
        a, b = np.full(n, -np.inf), np.full(n, 0.3)
        dense = mvn_probability(a, b, spd20, n_samples=2000, tile_size=5, rng=1)
        tlr = mvn_probability(a, b, spd20, method="tlr", n_samples=2000, tile_size=5, accuracy=1e-6, rng=1)
        assert tlr.probability == pytest.approx(dense.probability, abs=1e-4)

    def test_tlr_loose_accuracy_small_bias(self, spd20):
        """The paper's claim: accuracy 1e-3 keeps probability differences below ~1e-3."""
        n = spd20.shape[0]
        a, b = np.full(n, -np.inf), np.full(n, 0.3)
        dense = mvn_probability(a, b, spd20, n_samples=4000, tile_size=5, rng=1)
        tlr = mvn_probability(a, b, spd20, method="tlr", n_samples=4000, tile_size=5, accuracy=1e-3, rng=1)
        assert abs(tlr.probability - dense.probability) < 2e-3

    def test_mean_absorbed(self, rng):
        a_mat = rng.standard_normal((6, 6))
        sigma = a_mat @ a_mat.T + 6 * np.eye(6)
        mean = rng.standard_normal(6)
        b = mean + 1.0
        ref = multivariate_normal(mean=mean, cov=sigma).cdf(b)
        res = mvn_probability(np.full(6, -np.inf), b, sigma, n_samples=4000, tile_size=3, mean=mean, rng=0)
        assert res.probability == pytest.approx(ref, abs=5e-3)

    def test_entry_points_share_one_mean_rule(self, spd20):
        """The functional (Model) path and the direct sweep accept the same
        single means and reject the same ones with the same message."""
        n = spd20.shape[0]
        a, b = np.full(n, -np.inf), np.zeros(n)
        mu = np.linspace(-0.3, 0.3, n)
        factor = factorize(spd20, method="dense", tile_size=5)
        options = PMVNOptions(n_samples=200, rng=0)
        kwargs = dict(n_samples=200, tile_size=5, rng=0)
        for mean in (0.25, mu, list(mu), mu[None, :]):
            via_model = mvn_probability(a, b, spd20, method="dense", mean=mean, **kwargs)
            via_sweep = pmvn_integrate(a, b, factor, options, mean=mean)
            assert via_model.probability == via_sweep.probability
        for bad in (np.zeros(n + 1), np.zeros((2, n))):
            with pytest.raises(ValueError) as from_model:
                mvn_probability(a, b, spd20, method="dense", mean=bad, **kwargs)
            with pytest.raises(ValueError) as from_sweep:
                pmvn_integrate(a, b, factor, options, mean=bad)
            assert str(from_model.value) == str(from_sweep.value)

    def test_prefix_probabilities_monotone_and_match_final(self, spd20):
        n = spd20.shape[0]
        factor = factorize(spd20, method="dense", tile_size=6)
        options = PMVNOptions(n_samples=1500, rng=0, return_prefix=True)
        res = pmvn_integrate(np.full(n, -0.5), np.full(n, np.inf), factor, options)
        prefix = res.details["prefix_probabilities"]
        assert prefix.shape == (n,)
        assert np.all(np.diff(prefix) <= 1e-12)
        assert prefix[-1] == pytest.approx(res.probability, rel=1e-10)
        assert np.all(res.details["prefix_errors"] >= 0.0)

    def test_result_metadata(self, spd20):
        n = spd20.shape[0]
        res = mvn_probability(np.full(n, -np.inf), np.full(n, 0.0), spd20, method="tlr",
                              n_samples=500, tile_size=5, accuracy=1e-2, rng=0)
        assert res.method == "pmvn-tlr"
        assert res.details["tlr_accuracy"] == 1e-2
        assert res.dimension == n
        assert res.n_samples == 500

    def test_tlr_accuracy_read_from_factor(self, spd20, rng):
        """A pre-built (or rank-k updated) TLR factor reports the accuracy it
        was compressed at, not the argument or config default."""
        from repro.solver import MVNSolver, SolverConfig

        n = spd20.shape[0]
        a, b = np.full(n, -np.inf), np.zeros(n)
        factor = factorize(spd20, method="tlr", tile_size=5, accuracy=1e-6)
        direct = mvn_probability(a, b, spd20, method="tlr", n_samples=200, factor=factor, rng=0)
        assert direct.details["tlr_accuracy"] == 1e-6
        with MVNSolver(SolverConfig(method="tlr", n_samples=200)) as solver:
            model = solver.model(spd20, factor=factor)
            assert model.probability(a, b, rng=0).details["tlr_accuracy"] == 1e-6
            child = model.update(0.1 * rng.standard_normal((n, 2)))
            assert child.probability(a, b, rng=0).details["tlr_accuracy"] == 1e-6

    def test_invalid_limits_rejected(self, spd20):
        n = spd20.shape[0]
        factor = factorize(spd20, tile_size=6)
        with pytest.raises(ValueError):
            pmvn_integrate(np.full(n, 1.0), np.full(n, -1.0), factor)

    def test_timings_record_phases(self, spd20):
        n = spd20.shape[0]
        with collect_timings() as reg:
            mvn_probability(np.full(n, -np.inf), np.full(n, 0.0), spd20, n_samples=500, tile_size=6, rng=0)
        for region in ("factorization", "integration", "qmc_generation"):
            assert reg.count(region) >= 1


class TestVariateDraws:
    """An integer seed draws one variate matrix per sweep; other sources one per box."""

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        original = pmvn_module.qmc_samples

        def counting(*args, **kwargs):
            calls.append(kwargs.get("rng"))
            return original(*args, **kwargs)

        monkeypatch.setattr(pmvn_module, "qmc_samples", counting)
        return calls

    @staticmethod
    def _sweep(spd20, rng, monkeypatch):
        """Five identical boxes, swept in three waves (two boxes fit 128 columns)."""
        n = spd20.shape[0]
        box = (np.full(n, -np.inf), np.full(n, 0.5))
        monkeypatch.setattr(pmvn_module, "BATCH_WORKSPACE_COLS", 128 * n)
        options = PMVNOptions(n_samples=64, rng=rng)
        return pmvn_integrate_batch([box] * 5, factorize(spd20, tile_size=6), options)

    @pytest.mark.parametrize("seed", [3, np.int64(3)])
    def test_integer_seed_draws_once(self, spd20, draws, seed, monkeypatch):
        results = self._sweep(spd20, seed, monkeypatch)
        assert len(draws) == 1
        assert len({result.probability for result in results}) == 1

    @pytest.mark.parametrize("source", ["generator", None])
    def test_other_sources_draw_per_box(self, spd20, draws, source, monkeypatch):
        rng = np.random.default_rng(3) if source == "generator" else None
        results = self._sweep(spd20, rng, monkeypatch)
        assert len(draws) == 5
        # identical boxes, different variates: every estimate differs
        assert len({result.probability for result in results}) == 5


class TestTopLevelAPI:
    @pytest.mark.parametrize("method", ["mc", "sov", "sov-seq", "dense", "tlr"])
    def test_all_methods_consistent(self, method, rng):
        a_mat = rng.standard_normal((6, 6))
        sigma = a_mat @ a_mat.T + 6 * np.eye(6)
        b = np.full(6, 1.0)
        ref = multivariate_normal(cov=sigma).cdf(b)
        n_samples = 60_000 if method == "mc" else 3000
        res = mvn_probability(np.full(6, -np.inf), b, sigma, method=method, n_samples=n_samples, tile_size=3, rng=0)
        assert res.probability == pytest.approx(ref, abs=1.5e-2 if method == "mc" else 5e-3)

    def test_unknown_method(self, small_spd):
        with pytest.raises(ValueError):
            mvn_probability(np.zeros(8), np.ones(8), small_spd, method="quadrature")

    def test_n_workers_spawns_runtime(self, spd20):
        n = spd20.shape[0]
        res = mvn_probability(
            np.full(n, -np.inf), np.full(n, 0.2), spd20, method="dense", n_samples=800, n_workers=3, tile_size=5, rng=0
        )
        ref = mvn_probability(
            np.full(n, -np.inf), np.full(n, 0.2), spd20, method="dense", n_samples=800, n_workers=1, tile_size=5, rng=0
        )
        assert res.probability == pytest.approx(ref.probability, rel=1e-9)
