"""Unit tests for the dense tile linear algebra substrate."""

import numpy as np
import pytest

from repro.runtime import Runtime, TaskError
from repro.tile import TileMatrix, tile_ranges, tiled_cholesky
from repro.tile.dense_kernels import potrf_flops


class TestTileRanges:
    def test_even_split(self):
        assert tile_ranges(10, 5) == [(0, 5), (5, 10)]

    def test_ragged_edge(self):
        assert tile_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_single_tile(self):
        assert tile_ranges(3, 10) == [(0, 3)]


class TestTileMatrix:
    def test_from_dense_roundtrip(self, rng):
        dense = rng.standard_normal((13, 9))
        tiles = TileMatrix.from_dense(dense, 4)
        np.testing.assert_allclose(tiles.to_dense(), dense)
        assert tiles.mt == 4 and tiles.nt == 3

    def test_lower_only_roundtrip_symmetrized(self, small_spd):
        tiles = TileMatrix.from_dense(small_spd, 3, lower_only=True)
        np.testing.assert_allclose(tiles.to_dense(symmetrize=True), small_spd)

    def test_lower_only_upper_access_rejected(self, small_spd):
        tiles = TileMatrix.from_dense(small_spd, 3, lower_only=True)
        with pytest.raises(KeyError):
            tiles.tile(0, 1)

    def test_index_out_of_range(self, small_spd):
        tiles = TileMatrix.from_dense(small_spd, 3)
        with pytest.raises(IndexError):
            tiles.tile(10, 0)

    def test_set_tile_shape_check(self, small_spd):
        tiles = TileMatrix.from_dense(small_spd, 3)
        with pytest.raises(ValueError):
            tiles.set_tile(0, 0, np.zeros((2, 2)))

    def test_zeros_and_shapes(self):
        tiles = TileMatrix.zeros(7, 5, 3)
        assert tiles.tile_shape(2, 1) == (1, 2)
        assert tiles.to_dense().sum() == 0.0

    def test_from_generator_matches_from_dense(self, medium_spd):
        nb = 12

        def gen(i, j, rr, cr):
            return medium_spd[rr[0]:rr[1], cr[0]:cr[1]]

        a = TileMatrix.from_generator(medium_spd.shape[0], medium_spd.shape[1], nb, gen)
        np.testing.assert_allclose(a.to_dense(), medium_spd)

    def test_from_generator_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            TileMatrix.from_generator(6, 6, 3, lambda i, j, rr, cr: np.zeros((1, 1)))

    def test_copy_is_deep(self, small_spd):
        tiles = TileMatrix.from_dense(small_spd, 4)
        dup = tiles.copy()
        dup.tile(0, 0)[:] = 0.0
        assert tiles.tile(0, 0).sum() != 0.0

    def test_block_cyclic_owner_map(self, small_spd):
        tiles = TileMatrix.from_dense(small_spd, 2)
        owners = tiles.owner_map(2, 2)
        assert owners.min() >= 0 and owners.max() <= 3
        assert owners[0, 0] == 0
        assert owners[1, 1] == 3

    def test_memory_bytes(self, small_spd):
        tiles = TileMatrix.from_dense(small_spd, 4)
        assert tiles.memory_bytes() == small_spd.nbytes


class TestTiledCholesky:
    @pytest.mark.parametrize("tile_size", [3, 5, 8, 40])
    def test_matches_numpy(self, medium_spd, tile_size):
        tiles = TileMatrix.from_dense(medium_spd, tile_size, lower_only=True)
        factor = tiled_cholesky(tiles)
        np.testing.assert_allclose(factor.to_dense(), np.linalg.cholesky(medium_spd), atol=1e-9)

    def test_full_layout_input_accepted(self, medium_spd):
        tiles = TileMatrix.from_dense(medium_spd, 7)
        factor = tiled_cholesky(tiles)
        np.testing.assert_allclose(factor.to_dense(), np.linalg.cholesky(medium_spd), atol=1e-9)

    def test_overwrite_false_preserves_input(self, small_spd):
        tiles = TileMatrix.from_dense(small_spd, 3, lower_only=True)
        before = tiles.to_dense(symmetrize=True)
        tiled_cholesky(tiles, overwrite=False)
        np.testing.assert_allclose(tiles.to_dense(symmetrize=True), before)

    def test_overwrite_true_modifies_input(self, small_spd):
        tiles = TileMatrix.from_dense(small_spd, 3, lower_only=True)
        factor = tiled_cholesky(tiles, overwrite=True)
        assert factor is tiles

    def test_parallel_runtime_gives_same_factor(self, medium_spd):
        serial = tiled_cholesky(TileMatrix.from_dense(medium_spd, 8, lower_only=True))
        threaded = tiled_cholesky(
            TileMatrix.from_dense(medium_spd, 8, lower_only=True), Runtime(n_workers=4)
        )
        np.testing.assert_allclose(serial.to_dense(), threaded.to_dense(), atol=1e-12)

    def test_non_spd_raises_task_error(self):
        bad = np.eye(6)
        bad[3, 3] = -2.0
        tiles = TileMatrix.from_dense(bad, 3, lower_only=True)
        with pytest.raises(TaskError):
            tiled_cholesky(tiles)

    def test_rectangular_rejected(self):
        tiles = TileMatrix.zeros(6, 4, 2)
        with pytest.raises(ValueError):
            tiled_cholesky(tiles)

    def test_flop_count(self):
        assert potrf_flops(100) == pytest.approx(100**3 / 3)
