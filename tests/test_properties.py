"""Property-based tests (hypothesis) on the core numerical invariants."""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels import ExponentialKernel, MaternKernel, pairwise_distances
from repro.query import MVNQuery
from repro.runtime import READ, READWRITE, WRITE, DataHandle, Task, TaskGraph
from repro.stats.normal import norm_cdf, norm_ppf
from repro.stats.qmc import HaltonSequence, RichtmyerLattice, first_primes
from repro.tile import TileMatrix, tiled_cholesky
from repro.tlr import TLRMatrix, compress_tile, tlr_cholesky
from repro.tlr.compression import QB_BLOCK, QB_SLACK
from repro.mvn import mvn_sov_vectorized

# hypothesis settings shared by the numerically heavier properties
_SLOW = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _spd_from_seed(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestNormalProperties:
    @given(hnp.arrays(np.float64, st.integers(1, 50), elements=st.floats(-30, 30)))
    def test_cdf_in_unit_interval(self, x):
        vals = norm_cdf(x)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    @given(hnp.arrays(np.float64, st.integers(1, 30), elements=st.floats(-6, 6)))
    def test_ppf_cdf_roundtrip(self, x):
        # beyond ~6 sigma the CDF saturates and the inverse loses relative accuracy
        np.testing.assert_allclose(norm_ppf(norm_cdf(x)), x, atol=1e-6)

    @given(st.floats(-6, 6), st.floats(-6, 6))
    def test_cdf_monotone(self, x, y):
        lo, hi = min(x, y), max(x, y)
        assert norm_cdf(np.array([lo]))[0] <= norm_cdf(np.array([hi]))[0] + 1e-15


class TestQMCProperties:
    @given(st.integers(1, 30))
    def test_first_primes_are_prime_and_increasing(self, count):
        primes = first_primes(count)
        assert np.all(np.diff(primes) > 0)
        for p in primes:
            p = int(p)
            assert p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 300), st.integers(0, 1000))
    def test_sequences_stay_in_open_cube(self, dim, n_points, seed):
        for cls in (RichtmyerLattice, HaltonSequence):
            pts = cls(dim, rng=seed).points(n_points)
            assert pts.shape == (n_points, dim)
            assert np.all((pts > 0.0) & (pts < 1.0))


class TestKernelProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(0.05, 5.0),
        st.floats(0.01, 2.0),
        st.floats(0.1, 3.0),
        st.integers(2, 12),
        st.integers(0, 100),
    )
    def test_covariance_matrices_are_psd(self, sigma2, range_, smoothness, n, seed):
        rng = np.random.default_rng(seed)
        locs = rng.random((n, 2))
        kern = MaternKernel(sigma2=sigma2, range_=range_, smoothness=smoothness)
        sigma = kern(pairwise_distances(locs))
        eigvals = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
        assert eigvals.min() > -1e-8 * sigma2

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 5.0), st.floats(0.01, 2.0), st.lists(st.floats(0, 10), min_size=1, max_size=30))
    def test_exponential_bounded_by_variance(self, sigma2, range_, distances):
        kern = ExponentialKernel(sigma2=sigma2, range_=range_)
        vals = kern(np.asarray(distances))
        assert np.all(vals <= sigma2 + 1e-12)
        assert np.all(vals >= 0.0)


class TestTileCholeskyProperties:
    @_SLOW
    @given(st.integers(0, 500), st.integers(2, 24), st.integers(1, 9))
    def test_factor_reconstructs_input(self, seed, n, tile_size):
        sigma = _spd_from_seed(seed, n)
        factor = tiled_cholesky(TileMatrix.from_dense(sigma, min(tile_size, n), lower_only=True))
        dense = factor.to_dense()
        np.testing.assert_allclose(dense @ dense.T, sigma, atol=1e-7 * n)
        # lower triangular with positive diagonal
        assert np.allclose(dense, np.tril(dense))
        assert np.all(np.diag(dense) > 0)


class TestTLRProperties:
    @_SLOW
    @given(st.integers(0, 300), st.floats(1e-6, 1e-1), st.integers(8, 30))
    def test_compression_error_bounded_by_accuracy(self, seed, accuracy, n):
        rng = np.random.default_rng(seed)
        # construct a tile with decaying spectrum like a covariance off-diagonal block
        u = rng.standard_normal((n, n))
        s = np.logspace(0, -10, n)
        dense = (u * s) @ rng.standard_normal((n, n))
        tile = compress_tile(dense, accuracy=accuracy)
        spectral_norm = np.linalg.norm(dense, 2)
        if spectral_norm > 0:
            err = np.linalg.norm(tile.to_dense() - dense, 2) / spectral_norm
            assert err <= max(accuracy * 3.0, 1e-12)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(1, 130),
        st.integers(1, 130),
        st.integers(1, 130),
        st.floats(0.5, 20.0),
        st.floats(-8.0, -1.0),
        st.one_of(st.none(), st.integers(1, 130)),
        st.integers(0, 2**32 - 1),
    )
    def test_compression_meets_its_contract(self, m, n, rank, decades, log_eps, max_rank, seed):
        """``||A - U V^T||_2 <= (1 + g) eps sigma_1`` and the exact SVD's rank.

        The tile has exact rank ``rank`` and a spectrum falling over
        ``decades`` decades.  A cap binds when it truncates the exact rank
        or stops the range basis before it spans the tile.
        """
        rng = np.random.default_rng(seed)
        rank = min(rank, m, n)
        u = np.linalg.qr(rng.standard_normal((m, rank)))[0]
        v = np.linalg.qr(rng.standard_normal((n, rank)))[0]
        dense = (u * np.logspace(0, -decades, rank)) @ v.T
        eps = 10.0**log_eps
        tile = compress_tile(dense, accuracy=eps, max_rank=max_rank)
        sv = np.linalg.svd(dense, compute_uv=False)
        exact = max(1, int(np.sum(sv > eps * sv[0])))
        if max_rank is not None:
            assert tile.rank <= max_rank
            if exact > max_rank or rank > max_rank + QB_BLOCK:
                return
        err = np.linalg.norm(dense - tile.to_dense(), 2)
        assert err <= (1.0 + QB_SLACK) * eps * sv[0]
        if not np.any(np.abs(sv - eps * sv[0]) <= QB_SLACK * eps * sv[0]):
            assert tile.rank == exact

    @_SLOW
    @given(st.integers(0, 200), st.integers(12, 40))
    def test_tlr_cholesky_reconstructs_at_tight_accuracy(self, seed, n):
        sigma = _spd_from_seed(seed, n)
        tlr = TLRMatrix.from_dense(sigma, tile_size=max(4, n // 3), accuracy=1e-10)
        factor = tlr_cholesky(tlr)
        dense = factor.to_lower_dense()
        np.testing.assert_allclose(dense @ dense.T, sigma, atol=1e-5 * n)


class TestTaskGraphProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from(["R", "W", "RW"])), min_size=1, max_size=30))
    def test_graph_is_always_acyclic_and_complete(self, accesses):
        """Sequential-task-flow graphs are DAGs whose topological order matches submission order."""
        handles = [DataHandle(name=f"h{i}") for i in range(5)]
        modes = {"R": READ, "W": WRITE, "RW": READWRITE}
        graph = TaskGraph()
        tasks = []
        for handle_idx, mode in accesses:
            tasks.append(graph.add_task(Task(lambda *a: None, [(handles[handle_idx], modes[mode])])))
        order = graph.topological_order()
        assert len(order) == len(tasks)
        position = {t: i for i, t in enumerate(order)}
        for task in tasks:
            for pred in graph.predecessors[task]:
                assert position[pred] < position[task]


class TestMVNProperties:
    @_SLOW
    @given(st.integers(0, 300), st.integers(2, 8))
    def test_probability_in_unit_interval(self, seed, n):
        sigma = _spd_from_seed(seed, n)
        rng = np.random.default_rng(seed)
        a = rng.normal(-1, 1, n)
        b = a + rng.uniform(0.5, 3.0, n)
        res = mvn_sov_vectorized(a, b, sigma, n_samples=500, rng=seed)
        assert 0.0 <= res.probability <= 1.0

    @_SLOW
    @given(st.integers(0, 200), st.integers(2, 6))
    def test_probability_monotone_in_box_size(self, seed, n):
        """Enlarging the integration box cannot decrease the probability."""
        sigma = _spd_from_seed(seed, n)
        rng = np.random.default_rng(seed)
        a = rng.normal(-0.5, 0.5, n)
        b = a + rng.uniform(0.5, 2.0, n)
        small = mvn_sov_vectorized(a, b, sigma, n_samples=3000, rng=seed)
        large = mvn_sov_vectorized(a - 0.5, b + 0.5, sigma, n_samples=3000, rng=seed)
        assert large.probability >= small.probability - 5e-3


class TestQueryWireProperties:
    @given(
        st.integers(1, 12).flatmap(lambda n: st.tuples(
            hnp.arrays(np.float64, n, elements=st.one_of(st.floats(-5, 5), st.just(-np.inf))),
            hnp.arrays(np.float64, n, elements=st.one_of(st.floats(-5, 5), st.just(np.inf))),
            hnp.arrays(np.float64, n, elements=st.floats(-3, 3)),
        )),
        st.one_of(st.none(), st.integers(0, 2**63 - 1)),
    )
    def test_wire_round_trip_is_exact(self, arrays, seed):
        """Any box (infinite limits included) survives JSON bit for bit."""
        x, y, mean = arrays
        query = MVNQuery(np.minimum(x, y), np.maximum(x, y), mean=mean, rng=seed)
        restored = MVNQuery.from_dict(json.loads(json.dumps(query.to_dict())))
        assert restored.a.tobytes() == query.a.tobytes()
        assert restored.b.tobytes() == query.b.tobytes()
        assert np.asarray(restored.mean).tobytes() == np.asarray(query.mean).tobytes()
        assert restored.rng == seed
