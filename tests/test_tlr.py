"""Unit tests for the Tile Low-Rank substrate."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import factorize, mvn_probability

from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.runtime import Runtime, TaskError
from repro.tile import TileMatrix
from repro.tlr import cholesky as tlr_cholesky_module
from repro.tlr import compression as tlr_compression
from repro.tlr import (
    LowRankTile,
    TLRMatrix,
    compress_tile,
    lowrank_matmul_dense,
    rank_distribution,
    rank_histogram,
    recompress,
    tlr_cholesky,
    tlr_cholesky_flops,
)


def _smooth_tile(rng, m=30, n=24, rank=5):
    """A tile with rapidly decaying spectrum (what covariance tiles look like)."""
    u = rng.standard_normal((m, rank))
    v = rng.standard_normal((n, rank))
    scales = np.logspace(0, -6, rank)
    return (u * scales) @ v.T


def _decaying_tile(rng, m, n, decades):
    """A tile whose singular values fall evenly over ``decades`` decades."""
    p = min(m, n)
    u = np.linalg.qr(rng.standard_normal((m, p)))[0]
    v = np.linalg.qr(rng.standard_normal((n, p)))[0]
    return (u * np.logspace(0, -decades, p)) @ v.T


class TestLowRankTile:
    def test_to_dense_roundtrip(self, rng):
        u, v = rng.standard_normal((6, 2)), rng.standard_normal((5, 2))
        tile = LowRankTile(u, v)
        np.testing.assert_allclose(tile.to_dense(), u @ v.T)
        assert tile.shape == (6, 5)
        assert tile.rank == 2

    def test_rank_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            LowRankTile(rng.standard_normal((4, 2)), rng.standard_normal((4, 3)))

    def test_zero_rank_tile(self):
        tile = LowRankTile(np.zeros((3, 0)), np.zeros((4, 0)))
        assert tile.rank == 0
        assert tile.to_dense().shape == (3, 4)

    def test_transpose(self, rng):
        tile = LowRankTile(rng.standard_normal((5, 2)), rng.standard_normal((3, 2)))
        np.testing.assert_allclose(tile.transpose().to_dense(), tile.to_dense().T)

    def test_memory_smaller_than_dense_for_low_rank(self, rng):
        tile = compress_tile(_smooth_tile(rng, 60, 60, 4), accuracy=1e-6)
        assert tile.memory_bytes() < 60 * 60 * 8


class TestCompression:
    def test_accuracy_controls_error(self, rng):
        dense = _smooth_tile(rng)
        for eps in (1e-1, 1e-3, 1e-6):
            tile = compress_tile(dense, accuracy=eps)
            err = np.linalg.norm(tile.to_dense() - dense, 2) / np.linalg.norm(dense, 2)
            assert err <= eps * 5.0

    def test_tighter_accuracy_larger_rank(self, rng):
        dense = _smooth_tile(rng, rank=8)
        loose = compress_tile(dense, accuracy=1e-1)
        tight = compress_tile(dense, accuracy=1e-7)
        assert tight.rank >= loose.rank

    def test_max_rank_cap(self, rng):
        dense = rng.standard_normal((20, 20))  # full rank
        tile = compress_tile(dense, accuracy=1e-12, max_rank=5)
        assert tile.rank == 5

    def test_zero_tile(self):
        tile = compress_tile(np.zeros((6, 4)))
        assert tile.rank == 0

    def test_invalid_accuracy(self, rng):
        with pytest.raises(ValueError):
            compress_tile(rng.standard_normal((4, 4)), accuracy=2.0)

    def test_compression_is_history_independent(self, tmp_path):
        """A tile's sketch depends on its width and block index only.

        The probe needs several sketch blocks; in between, tiles of other
        widths (some narrower than one block) and of its own width (needing
        fewer blocks) are compressed, and a fresh process compresses it with
        nothing before it.
        """
        rng = np.random.default_rng(21)
        probe = _decaying_tile(rng, 60, 50, decades=8.0)
        before = compress_tile(probe, accuracy=1e-4)
        assert before.rank > tlr_compression.QB_BLOCK
        for m, n, decades in ((60, 50, 30.0), (7, 9, 4.0), (12, 3, 2.0), (90, 130, 8.0), (40, 17, 6.0)):
            compress_tile(_decaying_tile(rng, m, n, decades), accuracy=1e-4)
        after = compress_tile(probe, accuracy=1e-4)
        assert before.u.tobytes() == after.u.tobytes()
        assert before.v.tobytes() == after.v.tobytes()

        path = tmp_path / "probe.npy"
        np.save(path, probe)
        code = (
            "import sys, numpy as np\n"
            "from repro.tlr import compress_tile\n"
            "t = compress_tile(np.load(sys.argv[1]), accuracy=1e-4)\n"
            "sys.stdout.write(t.u.tobytes().hex() + ' ' + t.v.tobytes().hex())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", code, str(path)], capture_output=True, text=True, env=env, timeout=120, check=True
        )
        fresh_u, fresh_v = out.stdout.split()
        assert fresh_u == before.u.tobytes().hex()
        assert fresh_v == before.v.tobytes().hex()

    def test_recompress_reduces_inflated_rank(self, rng):
        dense = _smooth_tile(rng, rank=3)
        tile = compress_tile(dense, accuracy=1e-8)
        inflated = LowRankTile(np.hstack([tile.u, tile.u]), np.hstack([tile.v, np.zeros_like(tile.v)]))
        rounded = recompress(inflated, accuracy=1e-6)
        assert rounded.rank <= tile.rank + 1
        np.testing.assert_allclose(rounded.to_dense(), inflated.to_dense(), atol=1e-6)

    def test_lowrank_matmul_dense(self, rng):
        tile = compress_tile(_smooth_tile(rng), accuracy=1e-10)
        x = rng.standard_normal((tile.shape[1], 7))
        np.testing.assert_allclose(lowrank_matmul_dense(tile, x), tile.to_dense() @ x, atol=1e-8)

    def test_lowrank_matmul_shape_check(self, rng):
        tile = compress_tile(rng.standard_normal((4, 6)))
        with pytest.raises(ValueError):
            lowrank_matmul_dense(tile, np.zeros((5, 2)))

    def test_lowrank_matmul_dense_out(self, rng):
        """``out=`` receives the product; a rank-0 tile writes zeros over it."""
        tile = compress_tile(_smooth_tile(rng), accuracy=1e-10)
        x = rng.standard_normal((tile.shape[1], 7))
        out = np.full((tile.shape[0], 7), np.nan)
        assert lowrank_matmul_dense(tile, x, out=out) is out
        np.testing.assert_array_equal(out, lowrank_matmul_dense(tile, x))
        empty = compress_tile(np.zeros((tile.shape[0], tile.shape[1])))
        assert empty.rank == 0
        assert lowrank_matmul_dense(empty, x, out=out) is out
        assert np.all(out == 0.0)
        np.testing.assert_array_equal(lowrank_matmul_dense(empty, x), np.zeros(out.shape))


@pytest.fixture
def cov_matrix():
    geom = Geometry.regular_grid(8, 8)
    return build_covariance(ExponentialKernel(1.0, 0.3), geom.locations, nugget=1e-6), geom


class TestTLRMatrix:
    def test_from_dense_reconstruction_error(self, cov_matrix):
        sigma, _ = cov_matrix
        tlr = TLRMatrix.from_dense(sigma, tile_size=16, accuracy=1e-4)
        assert tlr.compression_error(sigma) < 1e-3

    def test_tighter_accuracy_smaller_error(self, cov_matrix):
        sigma, _ = cov_matrix
        loose = TLRMatrix.from_dense(sigma, 16, accuracy=1e-1).compression_error(sigma)
        tight = TLRMatrix.from_dense(sigma, 16, accuracy=1e-6).compression_error(sigma)
        assert tight < loose

    def test_from_kernel_matches_from_dense(self, cov_matrix):
        sigma, geom = cov_matrix
        a = TLRMatrix.from_dense(sigma, 16, accuracy=1e-6)
        b = TLRMatrix.from_kernel(ExponentialKernel(1.0, 0.3), geom.locations, 16, accuracy=1e-6, nugget=1e-6)
        np.testing.assert_allclose(a.to_dense(), b.to_dense(), atol=1e-5)

    def test_from_tile_matrix(self, cov_matrix):
        sigma, _ = cov_matrix
        tiles = TileMatrix.from_dense(sigma, 16, lower_only=True)
        tlr = TLRMatrix.from_tile_matrix(tiles, accuracy=1e-5)
        assert tlr.compression_error(sigma) < 1e-4

    def test_rank_matrix_symmetric_with_dense_diag(self, cov_matrix):
        sigma, _ = cov_matrix
        tlr = TLRMatrix.from_dense(sigma, 16, accuracy=1e-3)
        ranks = tlr.rank_matrix()
        assert np.all(ranks == ranks.T)
        assert np.all(np.diag(ranks) == 16)

    def test_compression_ratio_above_one(self, cov_matrix):
        sigma, _ = cov_matrix
        tlr = TLRMatrix.from_dense(sigma, 16, accuracy=1e-2)
        assert tlr.compression_ratio() > 1.0

    def test_max_rank_enforced(self, cov_matrix):
        sigma, _ = cov_matrix
        tlr = TLRMatrix.from_dense(sigma, 16, accuracy=1e-12, max_rank=3)
        assert tlr.max_offdiag_rank() <= 3

    def test_copy_independent(self, cov_matrix):
        sigma, _ = cov_matrix
        tlr = TLRMatrix.from_dense(sigma, 16, accuracy=1e-3)
        dup = tlr.copy()
        dup.diagonal[0][:] = 0.0
        assert tlr.diagonal[0].sum() != 0.0

    def test_rejects_nonsquare(self, rng):
        with pytest.raises(ValueError):
            TLRMatrix.from_dense(rng.standard_normal((4, 6)), 2)


class TestTLRCholesky:
    def test_factor_reconstructs_matrix(self, cov_matrix):
        sigma, _ = cov_matrix
        tlr = TLRMatrix.from_dense(sigma, 16, accuracy=1e-8)
        factor = tlr_cholesky(tlr)
        l_dense = factor.to_lower_dense()
        np.testing.assert_allclose(l_dense @ l_dense.T, sigma, atol=1e-5)

    def test_matches_dense_cholesky_at_tight_accuracy(self, cov_matrix):
        sigma, _ = cov_matrix
        tlr = TLRMatrix.from_dense(sigma, 16, accuracy=1e-10)
        factor = tlr_cholesky(tlr)
        np.testing.assert_allclose(factor.to_lower_dense(), np.linalg.cholesky(sigma), atol=1e-5)

    def test_loose_accuracy_still_approximates(self, cov_matrix):
        sigma, _ = cov_matrix
        tlr = TLRMatrix.from_dense(sigma, 16, accuracy=1e-2)
        factor = tlr_cholesky(tlr)
        l_dense = factor.to_lower_dense()
        rel = np.linalg.norm(l_dense @ l_dense.T - sigma) / np.linalg.norm(sigma)
        assert rel < 5e-2

    def test_parallel_matches_serial(self, cov_matrix):
        sigma, _ = cov_matrix
        serial = tlr_cholesky(TLRMatrix.from_dense(sigma, 16, accuracy=1e-8))
        threaded = tlr_cholesky(TLRMatrix.from_dense(sigma, 16, accuracy=1e-8), Runtime(n_workers=4))
        np.testing.assert_allclose(serial.to_lower_dense(), threaded.to_lower_dense(), atol=1e-8)

    def test_overwrite_semantics(self, cov_matrix):
        sigma, _ = cov_matrix
        tlr = TLRMatrix.from_dense(sigma, 16, accuracy=1e-6)
        out = tlr_cholesky(tlr, overwrite=True)
        assert out is tlr

    def test_indefinite_diagonal_tile_raises_task_error(self):
        """The POTRF codelet shared with the tiled Cholesky fails the task."""
        bad = np.eye(6)
        bad[3, 3] = -2.0
        with pytest.raises(TaskError, match="diagonal tile is not positive definite"):
            tlr_cholesky(TLRMatrix.from_dense(bad, 3, accuracy=1e-8))

    def test_each_tile_is_compressed_once(self, monkeypatch):
        """A factorization compresses every off-diagonal tile once, after
        its last trailing update, and never re-rounds one: tile ``(i, k)``
        is compressed after its ``k`` GEMM updates."""
        geom = Geometry.regular_grid(12, 12)
        sigma = build_covariance(ExponentialKernel(1.0, 0.1), geom.locations, nugget=1e-6)
        updates, compressed, rounded = {}, [], []
        real_gemm = tlr_cholesky_module._gemm_lowrank
        real_compress, real_recompress = tlr_compression.compress_tile, tlr_compression.recompress

        def gemm(target, *args, **kwargs):
            updates[id(target)] = updates.get(id(target), 0) + 1
            return real_gemm(target, *args, **kwargs)

        def compress_tile(tile, *args, **kwargs):
            compressed.append(updates.get(id(tile), 0))
            return real_compress(tile, *args, **kwargs)

        def recompress(tile, *args, **kwargs):
            rounded.append(tile.rank)
            return real_recompress(tile, *args, **kwargs)

        monkeypatch.setattr(tlr_cholesky_module, "_gemm_lowrank", gemm)
        monkeypatch.setattr(tlr_compression, "compress_tile", compress_tile)
        monkeypatch.setattr(tlr_compression, "recompress", recompress)
        factor = factorize(sigma, method="tlr", tile_size=16, accuracy=1e-3)
        nt = factor.n_blocks
        assert len(factor.tlr.offdiag) == nt * (nt - 1) // 2
        assert sorted(compressed) == sorted(k for i in range(nt) for k in range(i))
        assert rounded == []

    def test_gemm_updates_the_dense_tile_at_min_rank(self, rng):
        """A trailing update subtracts ``U_ik (V_ik^T V_jk) U_jk^T`` from the
        dense tile, whichever of the two ranks is smaller."""
        target = rng.standard_normal((12, 10))
        for k_left, k_right in ((2, 5), (5, 2)):
            left = LowRankTile(rng.standard_normal((12, k_left)), rng.standard_normal((8, k_left)))
            right = LowRankTile(rng.standard_normal((10, k_right)), rng.standard_normal((8, k_right)))
            updated = target.copy()
            tlr_cholesky_module._gemm_lowrank(updated, left, right)
            np.testing.assert_allclose(updated, target - left.to_dense() @ right.to_dense().T, atol=1e-12)

    def test_flop_model_much_smaller_than_dense(self):
        dense_flops = 19600**3 / 3
        tlr_flops = tlr_cholesky_flops(19600, 980, 10)
        assert tlr_flops < dense_flops / 10


class TestEndToEndAccuracy:
    def test_tlr_probability_tracks_dense(self):
        """Only the factor separates the two estimates: the QMC points are shared.

        The bound ``0.025 * eps`` is twice the largest gap the exact
        per-tile SVD compressor left here (0.0117 eps at eps = 1e-2).
        """
        geom = Geometry.regular_grid(16, 16)
        sigma = build_covariance(ExponentialKernel(1.0, 0.234), geom.locations, nugget=1e-6)
        n = sigma.shape[0]
        a, b = np.full(n, -np.inf), np.full(n, 1.5)
        dense = mvn_probability(a, b, sigma, n_samples=2000, tile_size=32, rng=7).probability
        for eps in (1e-2, 1e-3, 1e-4):
            tlr = mvn_probability(a, b, sigma, method="tlr", n_samples=2000, tile_size=32,
                                  accuracy=eps, rng=7).probability
            assert abs(tlr - dense) <= 0.025 * eps

    def test_independent_tiles_compress_to_rank_zero(self):
        """Uncorrelated tile blocks give rank-0 factor tiles, and the sweep
        propagates nothing through them: TLR then equals dense."""
        block = build_covariance(ExponentialKernel(1.0, 0.3),
                                 Geometry.regular_grid(4, 2).locations, nugget=1e-6)
        sigma = np.kron(np.eye(3), block)
        n = sigma.shape[0]
        factor = factorize(sigma, method="tlr", tile_size=8, accuracy=1e-6)
        np.testing.assert_array_equal(factor.tlr.rank_matrix(), 8 * np.eye(3, dtype=np.int64))
        a, b = np.full(n, -np.inf), np.linspace(0.5, 1.5, n)
        tlr = mvn_probability(a, b, sigma, method="tlr", factor=factor, n_samples=500, rng=3)
        dense = mvn_probability(a, b, sigma, method="dense", tile_size=8, n_samples=500, rng=3)
        assert tlr.method == "pmvn-tlr"
        assert tlr.probability == pytest.approx(dense.probability, rel=1e-12)


class TestRankAnalysis:
    def test_rank_histogram_bins(self):
        ranks = np.array([[16, 3, 7], [3, 16, 12], [7, 12, 16]])
        hist = rank_histogram(ranks, tile_size=16)
        assert sum(hist.values()) == 3  # strictly lower triangle count
        assert hist["[1,5]"] == 1
        assert hist["[6,10]"] == 1
        assert hist["[11,16]"] == 1

    def test_stronger_correlation_smaller_ranks(self):
        """The paper's Figure 5 finding: ranks decay with stronger correlation.

        The effect needs the grid to resolve the correlation ranges, so this
        uses a 20x20 grid (400 locations) with tile size 50.
        """
        geom = Geometry.regular_grid(20, 20)
        weak = rank_distribution(ExponentialKernel(1.0, 0.033), geom.locations, 50, accuracy=1e-3)
        strong = rank_distribution(ExponentialKernel(1.0, 0.234), geom.locations, 50, accuracy=1e-3)
        assert strong.mean_rank <= weak.mean_rank
        assert strong.median_rank <= weak.median_rank

    def test_report_fields(self):
        geom = Geometry.regular_grid(10, 10)
        report = rank_distribution(ExponentialKernel(1.0, 0.1), geom.locations, 25, accuracy=1e-3)
        assert report.rank_matrix.shape == (4, 4)
        assert report.max_rank <= 25
        assert report.median_rank >= 1
        assert sum(report.histogram.values()) == 6
