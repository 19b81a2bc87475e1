"""Online covariance updates: rank-k Cholesky up/down-dates with lineage.

The property harness of the online-updates PR.  The contract under test
(see ``docs/updates.md``):

* ``update_factor(F, U)`` matches ``cholesky(Sigma + U U^T)`` elementwise
  (Cholesky factors are unique, so this pins the whole algebra),
* ``downdate(update(F, U), U)`` round-trips to ``F``,
* a chain of many random up/down-dates stays within drift bounds of a
  from-scratch refactorization,
* a downdate that would destroy positive definiteness raises the typed
  :class:`repro.DowndateError` — never NaNs, never a corrupted factor,
* an updated :class:`repro.solver.Model` answers **bit-identically**
  across every entry point (``Model.probability``, ``probability_batch``,
  the functional API with the updated factor, and :mod:`repro.serve`),
  with consistent plan and lineage stamps.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    DowndateError,
    FactorLineage,
    MVNSolver,
    SolverConfig,
    lineage_fingerprint,
    mvn_probability,
    update_factor,
)
from repro.batch import FactorCache
from repro.core.factor import factorize
from repro.core.update import normalize_update

_SLOW = settings(max_examples=20, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _spd(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _update_matrix(seed: int, n: int, k: int, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed + 1)
    return scale * rng.standard_normal((n, k))


class TestNormalizeAndFingerprint:
    def test_vector_promotes_to_one_column(self):
        u = normalize_update(np.arange(4.0), 4)
        assert u.shape == (4, 1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            normalize_update(np.ones((3, 2)), 4)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            normalize_update(np.array([[1.0], [np.nan]]), 2)

    def test_empty_update_rejected(self):
        with pytest.raises(ValueError, match="at least one row and one column"):
            normalize_update(np.ones((4, 0)), 4)

    def test_fingerprint_is_deterministic(self):
        u = _update_matrix(0, 8, 2)
        assert lineage_fingerprint("abc", u) == lineage_fingerprint("abc", u)

    def test_fingerprint_depends_on_direction_parent_and_u(self):
        u = _update_matrix(0, 8, 2)
        base = lineage_fingerprint("abc", u)
        assert base != lineage_fingerprint("abc", u, downdate=True)
        assert base != lineage_fingerprint("abd", u)
        assert base != lineage_fingerprint("abc", u + 1e-12)

    def test_vector_and_column_fingerprint_identically(self):
        u = np.arange(6.0)
        assert lineage_fingerprint("p", u) == lineage_fingerprint("p", u[:, None])


class TestDenseUpdateProperties:
    """Elementwise properties of the dense rank-k kernel (Cholesky factors
    are unique, so matching ``cholesky(Sigma + U U^T)`` pins everything)."""

    @_SLOW
    @given(st.integers(0, 400), st.integers(2, 40), st.integers(1, 6),
           st.integers(1, 9))
    def test_update_matches_refactorization(self, seed, n, k, tile_size):
        sigma = _spd(seed, n)
        u = _update_matrix(seed, n, min(k, n))
        factor = factorize(sigma, "dense", tile_size=min(tile_size, n))
        updated = update_factor(factor, u)
        expected = np.linalg.cholesky(sigma + u @ u.T)
        np.testing.assert_allclose(updated.to_dense(), expected,
                                   atol=1e-9 * n, rtol=1e-9)

    @_SLOW
    @given(st.integers(0, 400), st.integers(2, 40), st.integers(1, 6),
           st.integers(1, 9))
    def test_downdate_roundtrips(self, seed, n, k, tile_size):
        sigma = _spd(seed, n)
        u = _update_matrix(seed, n, min(k, n))
        factor = factorize(sigma, "dense", tile_size=min(tile_size, n))
        roundtrip = update_factor(update_factor(factor, u), u, downdate=True)
        np.testing.assert_allclose(roundtrip.to_dense(), factor.to_dense(),
                                   atol=1e-8 * n, rtol=1e-8)

    @_SLOW
    @given(st.integers(0, 200), st.integers(4, 24),
           st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 4),
                              st.booleans()),
                    min_size=8, max_size=14))
    def test_chain_stays_within_drift_bounds(self, seed, n, ops):
        """>= 8 chained up/down-dates track a from-scratch refactorization.

        Downdates use small-norm matrices (``||U||_F^2 < n``) so positive
        definiteness is guaranteed throughout: ``Sigma`` is built with a
        ``n * I`` ridge and every running iterate keeps ``min eig >= n/2``.
        """
        sigma = _spd(seed, n)
        factor = factorize(sigma, "dense", tile_size=max(2, n // 3))
        running = sigma.copy()
        for op_seed, k, downdate in ops:
            scale = 0.1 / np.sqrt(k) if downdate else 1.0
            u = _update_matrix(op_seed, n, k, scale=scale)
            sign = -1.0 if downdate else 1.0
            running = running + sign * (u @ u.T)
            factor = update_factor(factor, u, downdate=downdate)
        expected = np.linalg.cholesky(running)
        np.testing.assert_allclose(factor.to_dense(), expected,
                                   atol=1e-7 * n, rtol=1e-7)

    @_SLOW
    @given(st.integers(0, 200), st.integers(2, 24), st.floats(1.0001, 10.0))
    def test_pd_breaking_downdate_raises_typed_error(self, seed, n, alpha):
        """``Sigma - alpha^2 L e_1 (L e_1)^T`` loses PD for any alpha > 1:
        the kernel must raise DowndateError, not emit NaNs."""
        sigma = _spd(seed, n)
        chol = np.linalg.cholesky(sigma)
        u = alpha * chol[:, 0]
        factor = factorize(sigma, "dense", tile_size=max(2, n // 3))
        before = factor.to_dense()
        with pytest.raises(DowndateError):
            update_factor(factor, u, downdate=True)
        # the input factor is untouched (updates operate on a copy)
        assert np.isfinite(factor.to_dense()).all()
        np.testing.assert_array_equal(factor.to_dense(), before)


class TestTLRUpdate:
    """The low-rank block-refresh path (tight accuracy pins it to dense)."""

    def test_update_matches_refactorization_tightly(self):
        n, k = 48, 3
        sigma = _spd(5, n)
        u = _update_matrix(5, n, k)
        factor = factorize(sigma, "tlr", tile_size=12, accuracy=1e-12)
        updated = update_factor(factor, u)
        expected = np.linalg.cholesky(sigma + u @ u.T)
        np.testing.assert_allclose(updated.to_dense(), expected, atol=1e-8 * n)

    def test_downdate_roundtrips(self):
        n, k = 40, 2
        sigma = _spd(6, n)
        u = _update_matrix(6, n, k)
        factor = factorize(sigma, "tlr", tile_size=10, accuracy=1e-12)
        roundtrip = update_factor(update_factor(factor, u), u, downdate=True)
        np.testing.assert_allclose(roundtrip.to_dense(), factor.to_dense(),
                                   atol=1e-7 * n)

    def test_rank_growth_is_bounded_by_recompression(self):
        n, k = 60, 4
        rng = np.random.default_rng(7)
        # a smooth (compressible) covariance, so TLR ranks are genuinely low
        idx = np.arange(n, dtype=np.float64)
        sigma = np.exp(-np.abs(idx[:, None] - idx[None, :]) / 25.0) + 1e-6 * np.eye(n)
        u = 0.05 * rng.standard_normal((n, k))
        factor = factorize(sigma, "tlr", tile_size=15, accuracy=1e-6)
        before = sum(t.rank for t in factor.tlr.offdiag.values())
        n_tiles = len(factor.tlr.offdiag)
        updated = update_factor(factor, u)
        after = sum(t.rank for t in updated.tlr.offdiag.values())
        # growth is bounded by +k per tile even for an incompressible update
        assert after - before <= n_tiles * k
        expected = np.linalg.cholesky(sigma + u @ u.T)
        product = updated.to_dense() @ updated.to_dense().T
        np.testing.assert_allclose(product, expected @ expected.T, atol=1e-4)
        # ... and recompression reclaims rank the accuracy does not need:
        # an update far below the tolerance leaves the tile ranks unchanged
        tiny = update_factor(factor, 1e-9 * u)
        assert sum(t.rank for t in tiny.tlr.offdiag.values()) == before

    def test_pd_breaking_downdate_raises(self):
        n = 30
        sigma = _spd(8, n)
        chol = np.linalg.cholesky(sigma)
        factor = factorize(sigma, "tlr", tile_size=10, accuracy=1e-12)
        with pytest.raises(DowndateError):
            update_factor(factor, 1.5 * chol[:, 0], downdate=True)

    def test_unsupported_factor_type_rejected(self):
        with pytest.raises(TypeError, match="factor"):
            update_factor(object(), np.ones(4))


class TestModelUpdateLineage:
    """Model.update: lineage stamps, lazy covariance, cache accounting."""

    def _solver(self, **overrides):
        params = dict(method="dense", n_samples=400, tile_size=8)
        params.update(overrides)
        return MVNSolver(SolverConfig(**params))

    def test_child_answers_without_assembling_sigma(self):
        n = 24
        sigma = _spd(10, n)
        u = _update_matrix(10, n, 2)
        with self._solver() as solver:
            parent = solver.model(sigma)
            child = parent.update(u)
            # no covariance has been assembled for the child yet
            assert child._sigma_arr is None
            result = child.probability(np.full(n, -np.inf), np.ones(n), rng=0)
            assert child._sigma_arr is None  # the query used only the factor
            assert 0.0 < result.probability < 1.0
            # forcing assembly produces exactly Sigma + U U^T
            np.testing.assert_allclose(child.sigma, sigma + u @ u.T,
                                       rtol=0, atol=1e-12)

    def test_children_do_not_keep_ancestors_alive(self):
        """A child's lazy covariance captures what assembles the parent's
        covariance, never the parent model: a dropped ancestor — its factor
        and pooled sweep workspace included — is freed, and the child's
        covariance is still exact through an up/down chain."""
        n = 16
        sigma = _spd(15, n)
        u1, u2 = _update_matrix(15, n, 2), _update_matrix(16, n, 3)
        a, b = np.full(n, -np.inf), np.ones(n)
        with MVNSolver(SolverConfig(method="dense", n_samples=200, tile_size=8),
                       cache=None) as solver:
            model = solver.model(sigma)
            model.probability(a, b, rng=0)
            expected = sigma.copy()
            ancestors = []
            for u, downdate in ((u1, False), (u2, False), (u1, True)):
                ancestors.append(weakref.ref(model))
                model = model.update(u, downdate=downdate)
                model.probability(a, b, rng=0)
                expected = expected - u @ u.T if downdate else expected + u @ u.T
            gc.collect()
            assert [ref() for ref in ancestors] == [None, None, None]
            np.testing.assert_allclose(model.sigma, expected, rtol=0, atol=1e-12)
            # a model built from a factor alone still has no covariance
            bare = solver.model(None, factor=factorize(sigma, method="dense", tile_size=8))
            with pytest.raises(RuntimeError, match="neither a covariance"):
                bare.sigma

    def test_lineage_details_stamped_and_chained(self):
        n = 16
        sigma = _spd(11, n)
        u = _update_matrix(11, n, 3)
        with self._solver() as solver:
            parent = solver.model(sigma)
            child = parent.update(u)
            grandchild = child.update(u, downdate=True)

            expected_child_fp = lineage_fingerprint(parent.fingerprint, u)
            assert child.fingerprint == expected_child_fp
            assert grandchild.fingerprint == lineage_fingerprint(
                expected_child_fp, u, downdate=True)

            result = grandchild.probability(np.full(n, -np.inf), np.ones(n), rng=0)
            lineage = result.details["lineage"]
            assert lineage == {
                "parent": expected_child_fp,
                "fingerprint": grandchild.fingerprint,
                "rank": 3,
                "downdate": True,
                "depth": 2,
            }
            # the parent result carries no lineage stamp
            direct = parent.probability(np.full(n, -np.inf), np.ones(n), rng=0)
            assert "lineage" not in direct.details

    def test_child_records_lineage(self):
        n = 16
        sigma = _spd(12, n)
        u = _update_matrix(12, n, 2)
        cache = FactorCache(max_entries=4)
        with MVNSolver(SolverConfig(method="dense", n_samples=200, tile_size=8),
                       cache=cache) as solver:
            parent = solver.model(sigma)
            child = parent.update(u)
            lineage = child.lineage
            assert isinstance(lineage, FactorLineage)
            assert lineage.parent_fingerprint == parent.fingerprint
            assert lineage.rank == 2 and lineage.depth == 1

    def test_child_factors_stay_out_of_the_cache(self):
        """A depth-8 chain leaves the root's factor alone in the solver's
        cache: each child owns its factor, so it is freed with the child."""
        n = 16
        sigma = _spd(14, n)
        with self._solver(n_samples=64) as solver:
            model = solver.model(sigma)
            for step in range(8):
                model = model.update(_update_matrix(100 + step, n, 4, scale=0.1),
                                     downdate=bool(step % 2))
                model.probability(np.full(n, -np.inf), np.ones(n), rng=0)
            assert model.lineage.depth == 8
            assert len(solver.cache) == 1

    def test_downdate_error_propagates_from_model(self):
        n = 12
        sigma = _spd(13, n)
        chol = np.linalg.cholesky(sigma)
        with self._solver() as solver:
            parent = solver.model(sigma)
            parent.factorize()
            with pytest.raises(DowndateError):
                parent.update(2.0 * chol[:, 0], downdate=True)
            # the parent still answers after the failed downdate
            result = parent.probability(np.full(n, -np.inf), np.ones(n), rng=0)
            assert np.isfinite(result.probability)

    def test_probe_inheritance_rules(self):
        """An updated model plans its factor's method: no probe, no assembly."""
        from repro.distributed.pmvn_model import KernelRates
        from repro.query import PlannerRates, QueryPlanner

        n = 24
        sigma = _spd(14, n)
        u = _update_matrix(14, n, 2)
        # dense flops dear, rank-k kernels cheap: the parent's auto plan
        # probes and may pick either method; its children must follow it
        planner = QueryPlanner(PlannerRates(KernelRates(core_gflops=1e-3),
                                            lowrank_gflops=1e3, task_seconds=0.0))
        with MVNSolver(SolverConfig(method="auto", n_samples=400, tile_size=8),
                       planner=planner) as solver:
            parent = solver.model(sigma)
            parent_plan = parent.plan()
            assert parent_plan.probe is not None
            for child in (parent.update(u), parent.update(0.01 * u, downdate=True)):
                plan = child.plan()
                assert plan.method == parent_plan.method
                assert "pre-bound" in plan.reason
                assert plan.probe is None
                assert child._sigma_arr is None  # planning never assembled it


class TestCrossEntryParity:
    """One updated model, four entry points, one bit pattern."""

    N = 20
    SAMPLES = 400

    def _problem(self):
        sigma = _spd(21, self.N)
        u = _update_matrix(21, self.N, 3)
        rng = np.random.default_rng(2)
        a = np.full(self.N, -np.inf)
        b = rng.uniform(0.5, 2.0, self.N)
        return sigma, u, a, b

    def test_entry_points_bit_identical(self):
        sigma, u, a, b = self._problem()
        config = SolverConfig(method="dense", n_samples=self.SAMPLES, tile_size=8)
        with MVNSolver(config) as solver:
            child = solver.model(sigma).update(u)
            via_probability = child.probability(a, b, rng=0)
            via_batch = child.probability_batch([(a, b)], rng=0)[0]
            via_functional = mvn_probability(
                a, b, sigma + u @ u.T, method="dense",
                n_samples=self.SAMPLES, tile_size=8, rng=0,
                factor=child.factor,
            )

        from repro.serve import QueryBroker, ServeConfig, SigmaUpdate

        with QueryBroker(ServeConfig(n_shards=1, worker_mode="thread"),
                         config) as broker:
            broker.submit(a, b, sigma, rng=0).result(timeout=60)
            via_serve = broker.submit(a, b, SigmaUpdate(sigma, u),
                                      rng=0).result(timeout=60)

        results = {
            "probability": via_probability,
            "batch": via_batch,
            "functional": via_functional,
            "serve": via_serve,
        }
        reference = via_probability
        for name, result in results.items():
            assert result.probability == reference.probability, name
            assert result.error == reference.error, name
            assert result.details["plan"]["method"] == "dense", name

        # lineage stamps agree wherever the entry point knows the lineage
        # (the functional call receives only the bare factor)
        lineage = via_probability.details["lineage"]
        assert via_batch.details["lineage"] == lineage
        assert via_serve.details["lineage"] == lineage
        assert via_serve.details["serve"]["lineage"]["warm"] is True

    def test_updated_model_matches_refactorization_to_tolerance(self):
        """Same sweep, same seed: only the factor differs (by ~1e-14), so
        the estimates agree to a few ulps — but not necessarily bitwise."""
        sigma, u, a, b = self._problem()
        config = SolverConfig(method="dense", n_samples=self.SAMPLES, tile_size=8)
        with MVNSolver(config) as solver:
            updated = solver.model(sigma).update(u).probability(a, b, rng=0)
            scratch = solver.model(sigma + u @ u.T).probability(a, b, rng=0)
        np.testing.assert_allclose(updated.probability, scratch.probability,
                                   rtol=1e-9)
        np.testing.assert_allclose(updated.error, scratch.error, rtol=1e-6)
