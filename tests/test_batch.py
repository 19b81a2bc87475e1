"""Tests for the batched evaluation subsystem (repro.batch)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.crd as crd_module
import repro.core.pmvn as pmvn_module
from repro import confidence_region, factorize, mvn_probability
from repro.batch import (
    FactorCache,
    boxes_from_arrays,
    load_boxes,
    mvn_probability_batch,
    sigma_fingerprint,
)
from repro.core.crd import _standardized_problem, marginal_exceedance
from repro.core.pmvn import PMVNOptions, pmvn_integrate, pmvn_integrate_batch
from repro.kernels import ExponentialKernel, Geometry, build_covariance


@pytest.fixture
def batch_sigma() -> np.ndarray:
    geom = Geometry.regular_grid(6, 6)
    return build_covariance(ExponentialKernel(1.0, 0.2), geom.locations, nugget=1e-6)


def _boxes(n: int, count: int, seed: int = 7) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(seed)
    return [(np.full(n, -np.inf), rng.uniform(0.3, 2.0, n)) for _ in range(count)]


class TestBatchMatchesSingles:
    @pytest.mark.parametrize("method", ["dense", "tlr", "sov", "mc"])
    def test_probabilities_and_errors_match(self, batch_sigma, method):
        n = batch_sigma.shape[0]
        boxes = _boxes(n, 4)
        singles = [
            mvn_probability(a, b, batch_sigma, method=method, n_samples=300, rng=11)
            for a, b in boxes
        ]
        batched = mvn_probability_batch(boxes, batch_sigma, method=method, n_samples=300, rng=11)
        assert len(batched) == len(boxes)
        for single, batch_result in zip(singles, batched):
            assert batch_result.probability == pytest.approx(single.probability, rel=1e-10, abs=1e-300)
            assert batch_result.error == pytest.approx(single.error, rel=1e-10, abs=1e-300)
            assert batch_result.method == single.method
        for idx, batch_result in enumerate(batched):
            assert batch_result.details["batch_index"] == idx
            assert batch_result.details["batch_size"] == len(boxes)

    def test_wave_splitting_does_not_change_results(self, batch_sigma, monkeypatch):
        factor = factorize(batch_sigma, method="dense")
        boxes = _boxes(factor.n, 5)
        one_wave = pmvn_integrate_batch(boxes, factor, PMVNOptions(n_samples=200, rng=3))
        # a 200-chain workspace cap sweeps one box per wave
        monkeypatch.setattr(pmvn_module, "BATCH_WORKSPACE_COLS", 200 * factor.n)
        _fused, waves = pmvn_module.sweep_tiles(5, factor.n, 200, 1, factor.tile_size)
        assert len(waves) == 5
        waved = pmvn_integrate_batch(boxes, factor, PMVNOptions(n_samples=200, rng=3))
        for a_res, b_res in zip(one_wave, waved):
            assert a_res.probability == b_res.probability

    def test_chain_block_does_not_change_results(self, batch_sigma):
        factor = factorize(batch_sigma, method="dense")
        boxes = _boxes(factor.n, 3)
        wide = pmvn_integrate_batch(boxes, factor, PMVNOptions(n_samples=256, rng=5, chain_block=256))
        narrow = pmvn_integrate_batch(boxes, factor, PMVNOptions(n_samples=256, rng=5, chain_block=17))
        for w_res, n_res in zip(wide, narrow):
            assert w_res.probability == pytest.approx(n_res.probability, rel=1e-10)
        with pytest.raises(ValueError, match="chain_block"):
            pmvn_integrate_batch(boxes, factor, PMVNOptions(n_samples=256, chain_block=0))

    def test_shared_and_per_box_means(self, batch_sigma):
        n = batch_sigma.shape[0]
        boxes = _boxes(n, 3)
        mu_shared = np.linspace(-0.2, 0.3, n)
        singles = [
            mvn_probability(a, b, batch_sigma, method="dense", n_samples=200, rng=2, mean=mu_shared)
            for a, b in boxes
        ]
        batched = mvn_probability_batch(
            boxes, batch_sigma, method="dense", n_samples=200, rng=2, means=mu_shared
        )
        for single, batch_result in zip(singles, batched):
            assert batch_result.probability == pytest.approx(single.probability, rel=1e-12)

        per_box = np.vstack([mu_shared * scale for scale in (0.5, 1.0, 1.5)])
        singles = [
            mvn_probability(a, b, batch_sigma, method="dense", n_samples=200, rng=2, mean=mu)
            for (a, b), mu in zip(boxes, per_box)
        ]
        batched = mvn_probability_batch(
            boxes, batch_sigma, method="dense", n_samples=200, rng=2, means=per_box
        )
        for single, batch_result in zip(singles, batched):
            assert batch_result.probability == pytest.approx(single.probability, rel=1e-12)

    def test_mean_vector_as_list_matches_single_calls(self, batch_sigma):
        """A plain-list mean vector means the same thing as in mvn_probability."""
        n = batch_sigma.shape[0]
        boxes = _boxes(n, 2)
        mu_list = list(np.linspace(-0.2, 0.3, n))
        singles = [
            mvn_probability(a, b, batch_sigma, method="dense", n_samples=150, rng=4, mean=mu_list)
            for a, b in boxes
        ]
        batched = mvn_probability_batch(
            boxes, batch_sigma, method="dense", n_samples=150, rng=4, means=mu_list
        )
        for single, batch_result in zip(singles, batched):
            assert batch_result.probability == pytest.approx(single.probability, rel=1e-12)

    def test_per_box_scalar_means(self, batch_sigma):
        n = batch_sigma.shape[0]
        boxes = _boxes(n, 3)
        shifts = [0.0, 0.25, 0.5]
        singles = [
            mvn_probability(a, b, batch_sigma, method="dense", n_samples=150, rng=4, mean=shift)
            for (a, b), shift in zip(boxes, shifts)
        ]
        batched = mvn_probability_batch(
            boxes, batch_sigma, method="dense", n_samples=150, rng=4, means=shifts
        )
        for single, batch_result in zip(singles, batched):
            assert batch_result.probability == pytest.approx(single.probability, rel=1e-12)

    def test_ambiguous_means_rejected(self):
        sigma = np.eye(2) + 0.3 * (np.ones((2, 2)) - np.eye(2))
        boxes = [(np.full(2, -np.inf), np.zeros(2)), (np.full(2, -np.inf), np.ones(2))]
        with pytest.raises(ValueError, match="ambiguous"):
            mvn_probability_batch(boxes, sigma, n_samples=50, means=[0.1, 0.2])

    def test_mixed_per_box_means_match_single_calls(self, batch_sigma):
        """A ragged list may give one box a scalar and another a vector."""
        n = batch_sigma.shape[0]
        boxes = _boxes(n, 3)
        means = [0.1, np.linspace(-0.2, 0.3, n), -0.25]
        singles = [
            mvn_probability(a, b, batch_sigma, method="dense", n_samples=150, rng=4, mean=mu)
            for (a, b), mu in zip(boxes, means)
        ]
        batched = mvn_probability_batch(
            boxes, batch_sigma, method="dense", n_samples=150, rng=4, means=means
        )
        for single, batch_result in zip(singles, batched):
            assert batch_result.probability == pytest.approx(single.probability, rel=1e-12)

    @pytest.mark.parametrize(
        "means, message",
        [
            ([0.1, 0.2], r"3 per-box scalars, or an \(3, 36\) array; got shape \(2,\)"),
            (np.zeros((2, 36)), r"per-box means must have shape \(3, 36\), got \(2, 36\)"),
            ([0.1, np.zeros(36)], r"one entry per box \(3\), got 2"),
        ],
        ids=["scalar-count", "array-shape", "ragged-count"],
    )
    def test_means_of_the_wrong_count_rejected(self, batch_sigma, means, message):
        boxes = _boxes(batch_sigma.shape[0], 3)
        with pytest.raises(ValueError, match=message):
            mvn_probability_batch(boxes, batch_sigma, method="dense", n_samples=50, means=means)

    def test_return_prefix_matches_single_sweeps(self, batch_sigma):
        factor = factorize(batch_sigma, method="dense", tile_size=12)
        n = factor.n
        boxes = _boxes(n, 3)
        options = PMVNOptions(n_samples=150, rng=9, return_prefix=True, chain_block=factor.tile_size)
        batched = pmvn_integrate_batch(boxes, factor, options)
        for (a, b), batch_result in zip(boxes, batched):
            single = pmvn_integrate(a, b, factor, PMVNOptions(n_samples=150, rng=9, return_prefix=True))
            np.testing.assert_allclose(
                batch_result.details["prefix_probabilities"],
                single.details["prefix_probabilities"],
                rtol=1e-12,
            )

    def test_empty_batch(self, batch_sigma):
        assert mvn_probability_batch([], batch_sigma) == []

    def test_one_dimensional_problem(self):
        """Regression: the single-box wrapper must not trip the n == n_boxes
        means-ambiguity check on 1-d problems."""
        sigma = np.array([[2.0]])
        res = mvn_probability([-np.inf], [0.0], sigma, method="dense", n_samples=400, rng=0)
        assert res.probability == pytest.approx(0.5, abs=0.05)
        res = mvn_probability([-np.inf], [0.0], sigma, method="dense", n_samples=400, rng=0,
                              mean=np.array([10.0]))
        assert res.probability == pytest.approx(0.0, abs=1e-6)

    def test_bad_box_raises(self, batch_sigma):
        n = batch_sigma.shape[0]
        with pytest.raises(ValueError, match="box 0"):
            mvn_probability_batch([np.zeros(n)], batch_sigma, n_samples=50)
        with pytest.raises(ValueError):
            mvn_probability_batch([(np.zeros(3), np.ones(3))], batch_sigma, n_samples=50)

    def test_baseline_rejects_factor_and_cache(self, batch_sigma):
        factor = factorize(batch_sigma, method="dense")
        boxes = _boxes(batch_sigma.shape[0], 1)
        with pytest.raises(ValueError, match="does not use a Cholesky factor"):
            mvn_probability_batch(boxes, batch_sigma, method="sov", factor=factor)
        with pytest.raises(ValueError, match="does not use a Cholesky factor"):
            mvn_probability_batch(boxes, batch_sigma, method="sov", cache=FactorCache())
        with pytest.raises(ValueError, match="does not use a Cholesky factor"):
            mvn_probability(boxes[0][0], boxes[0][1], batch_sigma, method="sov", cache=FactorCache())

    def test_unknown_method_message(self, batch_sigma):
        boxes = _boxes(batch_sigma.shape[0], 1)
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            mvn_probability_batch(boxes, batch_sigma, method="bogus")


class TestFactorCache:
    def test_factorize_once_across_calls(self, batch_sigma):
        n = batch_sigma.shape[0]
        cache = FactorCache()
        boxes = _boxes(n, 3)
        plain = [
            mvn_probability(a, b, batch_sigma, method="dense", n_samples=100, rng=1)
            for a, b in boxes
        ]
        cached = [
            mvn_probability(a, b, batch_sigma, method="dense", n_samples=100, rng=1, cache=cache)
            for a, b in boxes
        ]
        assert cache.factorize_count == 1
        assert cache.misses == 1
        assert cache.hits == len(boxes) - 1
        for p_res, c_res in zip(plain, cached):
            assert c_res.probability == p_res.probability

    def test_batch_and_single_share_cache(self, batch_sigma):
        cache = FactorCache()
        boxes = _boxes(batch_sigma.shape[0], 2)
        mvn_probability_batch(boxes, batch_sigma, method="dense", n_samples=100, rng=1, cache=cache)
        mvn_probability(boxes[0][0], boxes[0][1], batch_sigma, method="dense",
                        n_samples=100, rng=1, cache=cache)
        assert cache.factorize_count == 1

    def test_settings_key_separate_entries(self, batch_sigma):
        cache = FactorCache()
        cache.get_or_factorize(batch_sigma, method="tlr", accuracy=1e-2)
        cache.get_or_factorize(batch_sigma, method="tlr", accuracy=1e-4)
        cache.get_or_factorize(batch_sigma, method="tlr", accuracy=1e-2)
        assert cache.factorize_count == 2
        # dense factors ignore the TLR knobs: one entry regardless of accuracy
        cache.get_or_factorize(batch_sigma, method="dense", accuracy=1e-2)
        cache.get_or_factorize(batch_sigma, method="dense", accuracy=1e-4)
        assert cache.factorize_count == 3

    def test_lru_eviction(self, batch_sigma, small_spd):
        cache = FactorCache(max_entries=1)
        cache.get_or_factorize(batch_sigma, method="dense")
        cache.get_or_factorize(small_spd, method="dense")
        assert len(cache) == 1
        cache.get_or_factorize(batch_sigma, method="dense")  # evicted -> refactorize
        assert cache.factorize_count == 3

    def test_fingerprint_is_content_based(self, batch_sigma):
        assert sigma_fingerprint(batch_sigma) == sigma_fingerprint(batch_sigma.copy())
        perturbed = batch_sigma.copy()
        perturbed[0, 0] += 1e-12
        assert sigma_fingerprint(batch_sigma) != sigma_fingerprint(perturbed)

    def test_content_copy_hits_and_identity_memo_skips_hash(self, batch_sigma, monkeypatch):
        import repro.batch.cache as cache_module

        cache = FactorCache()
        cache.get_or_factorize(batch_sigma, method="dense")
        # an equal-content copy (different object) must still hit
        cache.get_or_factorize(batch_sigma.copy(), method="dense")
        assert cache.factorize_count == 1 and cache.hits == 1
        # same object again: served from the identity memo, no re-hash
        hashed = []
        original = cache_module.sigma_fingerprint
        monkeypatch.setattr(
            cache_module, "sigma_fingerprint", lambda s: hashed.append(1) or original(s)
        )
        cache.get_or_factorize(batch_sigma, method="dense")
        assert cache.hits == 2
        assert hashed == []

    def test_fingerprint_normalizes_dtype_and_layout(self, batch_sigma):
        """Equal matrices must fingerprint identically regardless of dtype
        width or memory layout — a float32 matrix and the float64 matrix
        holding the same values must not miss the cache (or land on
        different serve shards)."""
        sigma32 = batch_sigma.astype(np.float32)
        sigma64 = sigma32.astype(np.float64)  # exact upcast: equal values
        reference = sigma_fingerprint(sigma64)
        assert sigma_fingerprint(sigma32) == reference
        # Fortran-ordered (non-C-contiguous) copy of the same values
        assert sigma_fingerprint(np.asfortranarray(sigma64)) == reference
        # strided view: every element of a zero-padded embedding
        embedded = np.zeros((2 * sigma64.shape[0], 2 * sigma64.shape[1]))
        embedded[::2, ::2] = sigma64
        assert sigma_fingerprint(embedded[::2, ::2]) == reference
        # nested lists normalize the same way
        assert sigma_fingerprint(sigma64.tolist()) == reference
        # genuinely different values must still miss
        assert sigma_fingerprint(batch_sigma) != reference

    def test_cache_hits_across_dtype_and_layout(self, batch_sigma):
        sigma32 = batch_sigma.astype(np.float32)
        sigma64 = sigma32.astype(np.float64)
        cache = FactorCache()
        first = cache.get_or_factorize(sigma64, method="dense")
        again = cache.get_or_factorize(sigma32, method="dense")
        fortran = cache.get_or_factorize(np.asfortranarray(sigma64), method="dense")
        assert first is again is fortran
        assert cache.factorize_count == 1 and cache.hits == 2

    def test_fingerprint_memo_size_validation(self):
        from repro.batch import FingerprintMemo

        with pytest.raises(ValueError):
            FingerprintMemo(size=0)

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            FactorCache(max_entries=0)


class TestConfidenceRegionBatched:
    def _field(self):
        geom = Geometry.regular_grid(6, 6)
        sigma = build_covariance(ExponentialKernel(1.0, 0.15), geom.locations, nugget=1e-6)
        mean = np.linspace(-0.5, 1.0, sigma.shape[0])
        return sigma, mean, 0.4

    def test_sequential_factorizes_once(self, monkeypatch):
        sigma, mean, threshold = self._field()
        calls = []
        original = crd_module.factorize
        monkeypatch.setattr(
            crd_module, "factorize", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        confidence_region(
            sigma, mean, threshold, algorithm="sequential", n_samples=100, rng=3,
            levels=np.arange(1, sigma.shape[0] + 1, 6),
        )
        assert len(calls) == 1

    def test_sequential_matches_historical_loop(self):
        """The batched prefix evaluation reproduces the seed's per-prefix loop."""
        sigma, mean, threshold = self._field()
        n = sigma.shape[0]
        levels = np.arange(1, n + 1, 6)
        result = confidence_region(
            sigma, mean, threshold, method="dense", algorithm="sequential",
            n_samples=200, rng=3, levels=levels,
        )

        # the historical implementation: one pmvn_integrate call per prefix
        p_marginal = marginal_exceedance(mean, np.diag(sigma), threshold)
        order = np.argsort(-p_marginal, kind="stable")
        corr_ord, a_std = _standardized_problem(sigma, mean, threshold, order)
        corr_ord[np.diag_indices_from(corr_ord)] += 1e-8
        factor = crd_module.factorize(corr_ord, method="dense")
        b = np.full(n, np.inf)
        sizes = np.unique(np.clip(np.asarray(levels, dtype=int), 1, n))
        prob_at = []
        for size in sizes:
            a_vec = np.full(n, -np.inf)
            a_vec[:size] = a_std[:size]
            res = pmvn_integrate(a_vec, b, factor, PMVNOptions(n_samples=200, rng=3))
            prob_at.append(res.probability)
        prefix_prob = np.interp(np.arange(1, n + 1), sizes, prob_at)
        expected = np.empty(n)
        expected[order] = np.minimum.accumulate(prefix_prob)

        np.testing.assert_allclose(result.confidence_function, expected, rtol=1e-12)

    def test_cache_shared_across_detections(self):
        sigma, mean, threshold = self._field()
        cache = FactorCache()
        first = confidence_region(sigma, mean, threshold, n_samples=100, rng=1, cache=cache)
        second = confidence_region(sigma, mean, threshold, n_samples=100, rng=1, cache=cache)
        assert cache.factorize_count == 1
        np.testing.assert_allclose(first.confidence_function, second.confidence_function)


class TestBoxIO:
    def test_boxes_from_arrays(self):
        boxes = boxes_from_arrays(np.zeros((3, 4)), np.ones((3, 4)))
        assert len(boxes) == 3
        assert boxes[1][0].shape == (4,)
        with pytest.raises(ValueError, match="matching shapes"):
            boxes_from_arrays(np.zeros((3, 4)), np.ones((2, 4)))

    def test_load_npz_and_synonyms(self, tmp_path):
        lower, upper = np.zeros((2, 3)), np.ones((2, 3))
        np.savez(tmp_path / "lu.npz", lower=lower, upper=upper)
        np.savez(tmp_path / "ab.npz", a=lower, b=upper)
        for name in ("lu.npz", "ab.npz"):
            boxes = load_boxes(tmp_path / name)
            assert len(boxes) == 2
            np.testing.assert_array_equal(boxes[0][1], np.ones(3))
        np.savez(tmp_path / "bad.npz", x=lower)
        with pytest.raises(ValueError, match="lower"):
            load_boxes(tmp_path / "bad.npz")

    def test_load_npy_stacked(self, tmp_path):
        stacked = np.stack([np.zeros((2, 3)), np.ones((2, 3))], axis=1)
        np.save(tmp_path / "boxes.npy", stacked)
        boxes = load_boxes(tmp_path / "boxes.npy")
        assert len(boxes) == 2
        np.save(tmp_path / "bad.npy", np.zeros((2, 3)))
        with pytest.raises(ValueError, match="n_boxes, 2, n"):
            load_boxes(tmp_path / "bad.npy")

    def test_load_text(self, tmp_path):
        path = tmp_path / "boxes.txt"
        path.write_text("-inf -inf 1.0 2.0\n0.0 0.0 3.0 4.0\n")
        boxes = load_boxes(path)
        assert len(boxes) == 2
        assert np.isneginf(boxes[0][0]).all()
        np.testing.assert_array_equal(boxes[1][1], [3.0, 4.0])
        (tmp_path / "odd.txt").write_text("1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="2\\*n"):
            load_boxes(tmp_path / "odd.txt")


class TestBatchCLI:
    def test_batch_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        lower = np.full((3, 36), -np.inf)
        upper = np.tile(np.linspace(0.8, 1.6, 3)[:, None], (1, 36))
        np.savez(tmp_path / "boxes.npz", lower=lower, upper=upper)
        out_path = tmp_path / "out.npz"
        code = main([
            "batch", "--boxes", str(tmp_path / "boxes.npz"), "--grid", "6",
            "--samples", "100", "--method", "dense", "--save", str(out_path),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "3 boxes" in captured
        assert "boxes/s" in captured
        saved = np.load(out_path)
        assert saved["probabilities"].shape == (3,)
        assert np.all(np.diff(saved["probabilities"]) >= 0)  # wider boxes, larger p

    def test_batch_dimension_mismatch(self, tmp_path):
        from repro.cli import main

        np.savez(tmp_path / "boxes.npz", lower=np.zeros((1, 5)), upper=np.ones((1, 5)))
        with pytest.raises(SystemExit, match="dimension"):
            main(["batch", "--boxes", str(tmp_path / "boxes.npz"), "--grid", "6"])
