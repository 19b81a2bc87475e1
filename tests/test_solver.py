"""Tests for the session-oriented solver API (repro.solver).

Three concerns:

* **parity** — `MVNSolver`/`Model` results are bit-identical to the
  functional API for every ``method=`` string (the functional API is a
  wrapper over a transient solver, and these tests pin that contract),
* **cache behavior** — one model factorizes once across ``probability`` →
  ``probability_batch`` → ``confidence_region``,
* **lifecycle** — closed solvers/runtimes reject reuse with a clear error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    FactorCache,
    MVNQuery,
    MVNSolver,
    Runtime,
    SolverConfig,
    confidence_region,
    factorize,
    mvn_probability,
    mvn_probability_batch,
)
from repro.core.methods import ACCEPTED_METHODS, PARALLEL_METHODS
from repro.kernels import ExponentialKernel, Geometry, build_covariance


@pytest.fixture
def solver_sigma() -> np.ndarray:
    geom = Geometry.regular_grid(5, 5)
    return build_covariance(ExponentialKernel(1.0, 0.2), geom.locations, nugget=1e-6)


@pytest.fixture
def correlation_sigma() -> np.ndarray:
    """An exact correlation matrix (unit diagonal, perfectly symmetric)."""
    geom = Geometry.regular_grid(4, 4)
    sigma = build_covariance(ExponentialKernel(1.0, 0.2), geom.locations, nugget=0.0)
    sigma = 0.5 * (sigma + sigma.T)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def _box(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.full(n, -np.inf), np.linspace(0.4, 1.2, n)


class TestParity:
    @pytest.mark.parametrize("method", ACCEPTED_METHODS)
    def test_probability_matches_functional(self, solver_sigma, method):
        n = solver_sigma.shape[0]
        a, b = _box(n)
        functional = mvn_probability(
            a, b, solver_sigma, method=method, n_samples=300, rng=17, tile_size=9
        )
        with MVNSolver(SolverConfig(method=method, n_samples=300, tile_size=9)) as solver:
            session = solver.model(solver_sigma).probability(a, b, rng=17)
        assert session.probability == functional.probability
        assert session.error == functional.error
        assert session.method == functional.method

    @pytest.mark.parametrize("method", ["dense", "tlr", "sov", "mc"])
    def test_probability_batch_matches_functional(self, solver_sigma, method):
        n = solver_sigma.shape[0]
        rng = np.random.default_rng(3)
        boxes = [(np.full(n, -np.inf), rng.uniform(0.3, 2.0, n)) for _ in range(4)]
        functional = mvn_probability_batch(
            boxes, solver_sigma, method=method, n_samples=200, rng=5
        )
        with MVNSolver(SolverConfig(method=method, n_samples=200)) as solver:
            session = solver.model(solver_sigma).probability_batch(boxes, rng=5)
        for f_res, s_res in zip(functional, session):
            assert s_res.probability == f_res.probability
            assert s_res.error == f_res.error
            assert s_res.details["batch_index"] == f_res.details["batch_index"]
            assert s_res.details["batch_size"] == len(boxes)

    @pytest.mark.parametrize("method", ["dense", "tlr", "sov", "sov-seq", "mc"])
    @pytest.mark.parametrize("seed", ["int", "generator"])
    @pytest.mark.parametrize("mean", ["scalar", "vector", "vector-n1"])
    @pytest.mark.parametrize("target_error", [None, 1e-4])
    def test_query_is_a_batch_of_one(self, solver_sigma, method, seed, mean, target_error):
        """``Model.query`` runs the batch path on one box: its answer — and
        its plan stamp — equals ``probability_batch([box])[0]``.  The n = 1
        case binds a flat length-1 mean, which the batched means-resolver
        alone would reject as ambiguous (n == n_boxes)."""
        sigma = solver_sigma[:1, :1] if mean == "vector-n1" else solver_sigma
        n = sigma.shape[0]
        a, b = _box(n)
        bound_mean = 0.25 if mean == "scalar" else list(np.linspace(-0.3, 0.3, n))

        def rng():
            return 11 if seed == "int" else np.random.default_rng(11)

        with MVNSolver(SolverConfig(method=method, n_samples=200, tile_size=9)) as solver:
            model = solver.model(sigma, mean=bound_mean)
            single = model.query(MVNQuery(a, b, rng=rng(), target_error=target_error,
                                          max_samples=1600))
            batch = model.probability_batch([(a, b)], rng=rng(), target_error=target_error,
                                            max_samples=1600)[0]
        assert single.probability == batch.probability
        assert single.error == batch.error
        assert single.n_samples == batch.n_samples
        assert single.details["plan"] == batch.details["plan"]

    @pytest.mark.parametrize("method", PARALLEL_METHODS)
    def test_confidence_region_matches_functional(self, solver_sigma, method):
        n = solver_sigma.shape[0]
        mean = np.linspace(-0.5, 1.0, n)
        functional = confidence_region(
            solver_sigma, mean, 0.4, method=method, n_samples=200, rng=7
        )
        with MVNSolver(SolverConfig(method=method, n_samples=200)) as solver:
            session = solver.model(solver_sigma, mean=mean).confidence_region(0.4, rng=7)
        np.testing.assert_array_equal(
            session.confidence_function, functional.confidence_function
        )
        np.testing.assert_array_equal(session.order, functional.order)

    def test_vector_mean_binding(self, solver_sigma):
        n = solver_sigma.shape[0]
        a, b = _box(n)
        mu = np.linspace(-0.3, 0.6, n)
        functional = mvn_probability(
            a, b, solver_sigma, method="dense", n_samples=200, rng=2, mean=mu
        )
        with MVNSolver(SolverConfig(method="dense", n_samples=200)) as solver:
            model = solver.model(solver_sigma, mean=mu)
            assert model.probability(a, b, rng=2).probability == functional.probability
            # the bound mean is applied to every box of a batch too — even
            # when n_boxes == n, which a flat means= vector could not express
            batch = model.probability_batch([(a, b)] * n, rng=2)
            assert batch[0].probability == functional.probability

    def test_per_call_overrides(self, solver_sigma):
        n = solver_sigma.shape[0]
        a, b = _box(n)
        with MVNSolver(SolverConfig(method="dense", n_samples=100)) as solver:
            model = solver.model(solver_sigma)
            big = model.probability(a, b, n_samples=400, rng=0)
            assert big.n_samples == 400
            functional = mvn_probability(
                a, b, solver_sigma, method="dense", n_samples=400, rng=0
            )
            assert big.probability == functional.probability

    def test_pre_bound_factor(self, solver_sigma):
        n = solver_sigma.shape[0]
        a, b = _box(n)
        factor = factorize(solver_sigma, method="dense", tile_size=9)
        with MVNSolver(SolverConfig(method="dense", n_samples=200, tile_size=9)) as solver:
            model = solver.model(solver_sigma, factor=factor)
            assert model.factor is factor
            result = model.probability(a, b, rng=1)
        functional = mvn_probability(
            a, b, solver_sigma, method="dense", n_samples=200, rng=1, factor=factor, tile_size=9
        )
        assert result.probability == functional.probability
        assert solver.cache is not None and solver.cache.factorize_count == 0


class TestCacheBehavior:
    def test_one_factorization_across_query_kinds(self, correlation_sigma):
        """probability -> batch -> confidence_region share a single factor.

        With an exact correlation matrix, zero mean and ``nugget=0`` the
        standardized matrix the CRD driver factorizes is bytewise the model
        covariance, so even the detection is a cache hit.
        """
        n = correlation_sigma.shape[0]
        a, b = _box(n)
        with MVNSolver(SolverConfig(method="dense", n_samples=150)) as solver:
            model = solver.model(correlation_sigma)
            model.probability(a, b, rng=0)
            model.probability_batch([(a, b), (a, b + 0.5)], rng=0)
            model.confidence_region(0.3, rng=0, nugget=0.0)
            assert solver.cache.factorize_count == 1

    def test_detection_memo_keeps_the_latest_matrix(self, monkeypatch):
        """A threshold sweep standardizes once when its ordering is
        threshold-invariant (constant variance), and holds one reordered
        matrix, not one per threshold, when the ordering moves with it."""
        import repro.core.crd as crd

        built = []
        real = crd._standardized_problem
        monkeypatch.setattr(crd, "_standardized_problem",
                            lambda *args: built.append(1) or real(*args))
        rng = np.random.default_rng(3)
        geom = Geometry.regular_grid(16, 16)
        n = geom.locations.shape[0]
        corr = build_covariance(ExponentialKernel(1.0, 0.1), geom.locations, nugget=1e-6)
        scale = rng.uniform(0.5, 2.0, n)
        mean = rng.uniform(-1.0, 1.0, n)
        for sigma, standardized in ((corr, 1), (corr * np.outer(scale, scale), 12)):
            built.clear()
            with MVNSolver(SolverConfig(method="dense", n_samples=64)) as solver:
                model = solver.model(sigma, mean=mean)
                for threshold in np.linspace(-1.0, 1.0, 12):
                    model.confidence_region(threshold, rng=0)
                assert len(built) == standardized
                assert len(model._std_memo) == 1

    def test_factor_shared_across_models_of_same_sigma(self, solver_sigma):
        n = solver_sigma.shape[0]
        a, b = _box(n)
        with MVNSolver(SolverConfig(method="dense", n_samples=100)) as solver:
            solver.model(solver_sigma).probability(a, b, rng=0)
            solver.model(solver_sigma.copy()).probability(a, b, rng=0)
            assert solver.cache.factorize_count == 1
            assert solver.cache.hits == 1

    def test_shared_cache_across_solvers(self, solver_sigma):
        n = solver_sigma.shape[0]
        a, b = _box(n)
        cache = FactorCache()
        with MVNSolver(SolverConfig(method="dense", n_samples=100), cache=cache) as solver:
            solver.model(solver_sigma).probability(a, b, rng=0)
        with MVNSolver(SolverConfig(method="dense", n_samples=100), cache=cache) as solver:
            solver.model(solver_sigma).probability(a, b, rng=0)
        assert cache.factorize_count == 1
        # a borrowed cache survives solver.close()
        assert len(cache) == 1

    def test_cache_none_disables_sharing_but_not_model_reuse(self, solver_sigma):
        n = solver_sigma.shape[0]
        a, b = _box(n)
        with MVNSolver(SolverConfig(method="dense", n_samples=100), cache=None) as solver:
            assert solver.cache is None
            model = solver.model(solver_sigma)
            model.probability(a, b, rng=0)
            first = model.factor
            model.probability(a, b, rng=0)
            assert model.factor is first  # bound factor still reused

    def test_eager_factorize(self, solver_sigma):
        with MVNSolver(SolverConfig(method="tlr", n_samples=100)) as solver:
            model = solver.model(solver_sigma)
            assert model.factor is None
            factor = model.factorize()
            assert model.factor is factor
            assert solver.cache.factorize_count == 1
        with MVNSolver(SolverConfig(method="sov")) as solver:
            with pytest.raises(ValueError, match="does not use a Cholesky factor"):
                solver.model(solver_sigma).factorize()


class TestSweepPool:
    """Sweep buffers are pooled per solver, not per model."""

    @staticmethod
    def _boxes(n):
        upper = np.linspace(0.4, 1.2, n)
        return [(np.full(n, -np.inf), upper), (np.full(n, -2.0), upper + 0.5),
                (np.full(n, -np.inf), np.full(n, np.inf))]

    def test_new_models_and_update_children_reuse_the_pool(self, solver_sigma):
        n = solver_sigma.shape[0]
        boxes = self._boxes(n)
        config = SolverConfig(method="dense", n_samples=96, tile_size=8)
        with MVNSolver(config) as solver:
            model = solver.model(solver_sigma)
            first = model.probability_batch(boxes, rng=0)
            pool = solver._sweep_workspace
            buffers = dict(pool._buffers)
            assert buffers
            again = solver.model(solver_sigma.copy()).probability_batch(boxes, rng=0)
            child = model.update(0.1 * np.ones((n, 1)))
            child.probability_batch(boxes, rng=0)
            solver.model(2.0 * solver_sigma).confidence_region(0.3, rng=0)
            # every later sweep ran on the same wave buffers: none allocated
            assert solver._sweep_workspace is pool
            assert pool._buffers.keys() == buffers.keys()
            assert all(pool._buffers[key] is buf for key, buf in buffers.items())
        assert [r.probability for r in again] == [r.probability for r in first]

    @pytest.mark.timeout(60)
    def test_concurrent_sweeps_fall_back_and_match_serial(self, solver_sigma, monkeypatch):
        """Two models of one solver sweep at the same time from two threads:
        the first holds the pooled wave buffers, the second runs on a
        transient workspace, and both answer bit for bit as serially."""
        import threading

        import repro.core.pmvn as pmvn_mod

        n = solver_sigma.shape[0]
        boxes = self._boxes(n)
        config = SolverConfig(method="tlr", n_samples=96, tile_size=8, accuracy=1e-6)
        with MVNSolver(config) as solver:
            model_a = solver.model(solver_sigma)
            model_b = solver.model(solver_sigma + 0.5 * np.eye(n))
            serial_a = model_a.probability_batch(boxes, rng=3)
            serial_b = model_b.probability_batch(boxes, rng=3)

            # thread a pauses inside its sweep, holding the pool, until
            # thread b's whole sweep has run
            a_holds_pool, b_done = threading.Event(), threading.Event()
            used = {}
            original = pmvn_mod._sweep_wave

            def sweep_wave(wave, tiles, variates, limits, factor, options, rt, n_samples,
                           fused, results, workspace, backend, clock):
                name = threading.current_thread().name
                used.setdefault(name, workspace)
                if name == "a" and not a_holds_pool.is_set():
                    a_holds_pool.set()
                    assert b_done.wait(timeout=30)
                original(wave, tiles, variates, limits, factor, options, rt, n_samples,
                         fused, results, workspace, backend, clock)

            monkeypatch.setattr(pmvn_mod, "_sweep_wave", sweep_wave)
            out = {}

            def run_a():
                out["a"] = model_a.probability_batch(boxes, rng=3)

            def run_b():
                assert a_holds_pool.wait(timeout=30)
                try:
                    out["b"] = model_b.probability_batch(boxes, rng=3)
                finally:
                    b_done.set()

            threads = [threading.Thread(target=run_a, name="a"),
                       threading.Thread(target=run_b, name="b")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert used["a"] is solver._sweep_workspace
            assert used["b"] is not solver._sweep_workspace  # the transient fallback
        for got, want in ((out["a"], serial_a), (out["b"], serial_b)):
            assert [(r.probability, r.error) for r in got] == [(r.probability, r.error) for r in want]

    def test_close_releases_the_pool(self, solver_sigma):
        import gc
        import weakref

        n = solver_sigma.shape[0]
        solver = MVNSolver(SolverConfig(method="dense", n_samples=96))
        model = solver.model(solver_sigma)
        model.probability_batch(self._boxes(n), rng=0)
        pool = weakref.ref(solver._sweep_workspace)
        solver.close()
        gc.collect()
        assert pool() is None


class TestSharedRuntime:
    """Two threads query models of one solver at the same time.

    Each sweep and factorization holds the solver's runtime from its first
    task through its ``wait_all``, so the two threads' task graphs never mix
    and every answer equals its serial value.  Mixed graphs lost tasks or ran
    them twice (wrong answers, a spurious ``LinAlgError`` from a half-built
    tile) or hung the two-worker runtime, hence the watchdog join.
    """

    ROUNDS = 12

    @staticmethod
    def _sigmas(n_rounds: int) -> list[np.ndarray]:
        geom = Geometry.regular_grid(6, 6)
        base = build_covariance(ExponentialKernel(1.0, 0.2), geom.locations, nugget=1e-6)
        return [base + (1.0 + 0.1 * k) * np.eye(base.shape[0]) for k in range(n_rounds)]

    @staticmethod
    def _answers(results) -> list[tuple[float, float]]:
        return [(r.probability, r.error) for r in results]

    def _run_threads(self, solver, work) -> list[list]:
        """Run ``work(thread, solver)`` on two threads under a watchdog."""
        import sys
        import threading

        out: list = [None, None]
        errors: list = []

        def run(thread: int) -> None:
            try:
                out[thread] = work(thread, solver)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(t,), daemon=True) for t in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two callers finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "watchdog: a thread hung"
        assert not errors, errors
        return out

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_factorized_models_match_serial(self, n_workers):
        sigmas = self._sigmas(2)
        boxes = TestSweepPool._boxes(sigmas[0].shape[0])
        config = SolverConfig(method="dense", n_samples=64, tile_size=6)
        with MVNSolver(config) as serial:
            want = [[self._answers(serial.model(sigma).probability_batch(boxes, rng=k))
                     for k in range(self.ROUNDS)] for sigma in sigmas]
        with MVNSolver(config, n_workers=n_workers) as solver:
            models = [solver.model(sigma) for sigma in sigmas]
            for model in models:
                model.factorize()
            got = self._run_threads(solver, lambda t, _solver: [
                self._answers(models[t].probability_batch(boxes, rng=k))
                for k in range(self.ROUNDS)
            ])
        assert got == want

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("method", ["dense", "tlr"])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_factorizations_match_serial(self, method, n_workers):
        sigmas = self._sigmas(2 * self.ROUNDS)
        boxes = TestSweepPool._boxes(sigmas[0].shape[0])
        config = SolverConfig(method=method, n_samples=64, tile_size=6, accuracy=1e-6)

        def rounds(thread: int, solver) -> list:
            return [self._answers(solver.model(sigmas[2 * k + thread]).probability_batch(boxes, rng=k))
                    for k in range(self.ROUNDS)]

        with MVNSolver(config) as serial:
            want = [rounds(t, serial) for t in (0, 1)]
        with MVNSolver(config, n_workers=n_workers) as solver:
            got = self._run_threads(solver, rounds)
        assert got == want


class TestLifecycle:
    def test_closed_solver_rejects_everything(self, solver_sigma):
        n = solver_sigma.shape[0]
        a, b = _box(n)
        solver = MVNSolver(SolverConfig(method="dense", n_samples=100))
        model = solver.model(solver_sigma)
        solver.close()
        solver.close()  # idempotent
        assert solver.closed
        with pytest.raises(RuntimeError, match="closed"):
            solver.model(solver_sigma)
        with pytest.raises(RuntimeError, match="closed"):
            model.probability(a, b, rng=0)
        with pytest.raises(RuntimeError, match="closed"):
            model.probability_batch([(a, b)], rng=0)
        with pytest.raises(RuntimeError, match="closed"):
            model.confidence_region(0.3, rng=0)
        with pytest.raises(RuntimeError, match="closed"):
            with solver:
                pass

    def test_context_manager_closes(self, solver_sigma):
        with MVNSolver(SolverConfig(method="dense")) as solver:
            assert not solver.closed
        assert solver.closed
        assert solver.runtime.closed  # owned runtime closed with the solver

    def test_borrowed_runtime_survives_solver_close(self, solver_sigma):
        n = solver_sigma.shape[0]
        a, b = _box(n)
        runtime = Runtime(n_workers=1)
        with MVNSolver(SolverConfig(method="dense", n_samples=100), runtime=runtime) as solver:
            solver.model(solver_sigma).probability(a, b, rng=0)
        assert not runtime.closed
        runtime.insert_task(lambda: None)  # still usable
        runtime.wait_all()
        runtime.close()

    def test_closed_runtime_rejects_submission(self):
        rt = Runtime()
        rt.close()
        assert rt.closed
        with pytest.raises(RuntimeError, match="closed"):
            rt.insert_task(lambda: None)
        with pytest.raises(RuntimeError, match="closed"):
            rt.wait_all()
        with pytest.raises(RuntimeError, match="closed"):
            rt.register(np.zeros(1))

    def test_runtime_context_manager_closes(self):
        ran = []
        with Runtime() as rt:
            rt.insert_task(lambda: ran.append(1))
        assert ran == [1]
        assert rt.closed

    def test_runtime_ensure(self):
        fresh = Runtime.ensure(None)
        assert fresh.n_workers == 1 and not fresh.closed
        rt = Runtime(n_workers=2)
        assert Runtime.ensure(rt) is rt
        rt.close()
        with pytest.raises(RuntimeError, match="closed"):
            Runtime.ensure(rt)

    def test_solver_rejects_closed_borrowed_runtime(self):
        rt = Runtime()
        rt.close()
        with pytest.raises(RuntimeError, match="closed"):
            MVNSolver(SolverConfig(), runtime=rt)


class TestConfig:
    def test_method_canonicalized(self):
        assert SolverConfig(method="PMVN").method == "dense"
        assert SolverConfig(method="genz").method == "sov"
        assert SolverConfig(method="tlr").is_parallel
        assert not SolverConfig(method="mc").is_parallel

    def test_unknown_method_message_matches_registry(self):
        from repro.core.methods import unknown_method_message

        with pytest.raises(ValueError) as excinfo:
            SolverConfig(method="bogus")
        assert str(excinfo.value) == unknown_method_message("bogus")

    def test_validation(self):
        with pytest.raises(ValueError, match="n_samples"):
            SolverConfig(n_samples=0)
        with pytest.raises(ValueError, match="tile_size"):
            SolverConfig(tile_size=0)
        with pytest.raises(ValueError, match="accuracy"):
            SolverConfig(accuracy=0.0)
        # rejected where configured, not at the first TLR factorization
        for accuracy in (1.0, 1.5, float("inf")):
            with pytest.raises(ValueError, match=r"accuracy must lie in \(0, 1\)"):
                SolverConfig(method="tlr", accuracy=accuracy)
        with pytest.raises(ValueError, match="max_rank"):
            SolverConfig(max_rank=0)

    def test_replace_revalidates(self):
        config = SolverConfig(method="dense")
        tlr = config.replace(method="tlr", accuracy=1e-5)
        assert tlr.method == "tlr" and tlr.accuracy == 1e-5
        assert config.method == "dense"  # frozen original untouched
        with pytest.raises(ValueError):
            config.replace(n_samples=-1)

    def test_solver_accepts_method_string(self, solver_sigma):
        with MVNSolver("tlr") as solver:
            assert solver.config.method == "tlr"
        with pytest.raises(TypeError, match="SolverConfig"):
            MVNSolver(42)

    def test_model_rejects_factor_for_baselines(self, solver_sigma):
        factor = factorize(solver_sigma, method="dense")
        with MVNSolver("sov") as solver:
            with pytest.raises(ValueError, match="does not use a Cholesky factor"):
                solver.model(solver_sigma, factor=factor)

    def test_explicit_method_rejects_a_factor_of_the_other_kind(self):
        """``factor=`` is the model's one factor: an explicit method must match it."""
        sigma = build_covariance(ExponentialKernel(1.0, 0.2),
                                 Geometry.regular_grid(12, 12).locations, nugget=1e-6)
        a, b = _box(sigma.shape[0])
        factors = {"dense": factorize(sigma, method="dense"), "tlr": factorize(sigma, method="tlr")}
        for method, kind in (("dense", "tlr"), ("tlr", "dense")):
            factor = factors[kind]
            expected = rf"method '{method}' cannot run on a pre-computed '{kind}' factor"
            with MVNSolver(SolverConfig(method=method, n_samples=100)) as solver:
                with pytest.raises(ValueError, match=expected):
                    solver.model(sigma, factor=factor)
                assert solver.cache.factorize_count == 0
            with pytest.raises(ValueError, match=expected):
                mvn_probability(a, b, sigma, method=method, factor=factor, n_samples=100)
            with pytest.raises(ValueError, match=expected):
                mvn_probability_batch([(a, b)], sigma, method=method, factor=factor, n_samples=100)
            # the matching method and "auto" run on the factor, factorizing nothing
            for requested in (kind, "auto"):
                with MVNSolver(SolverConfig(method=requested, n_samples=100)) as solver:
                    result = solver.model(sigma, factor=factor).probability(a, b, rng=0)
                    assert result.method == f"pmvn-{kind}"
                    assert solver.cache.factorize_count == 0

    @pytest.mark.parametrize("algorithm", ["prefix", "sequential"])
    def test_detection_sweeps_with_the_configured_backend(
        self, solver_sigma, monkeypatch, algorithm,
    ):
        """A detection's sweep gets the options a query of its model would."""
        import repro.core.pmvn as pmvn

        requested = []
        real = pmvn.get_backend
        monkeypatch.setattr(pmvn, "get_backend",
                            lambda name=None: requested.append(name) or real(name))
        n = solver_sigma.shape[0]
        config = SolverConfig(method="dense", n_samples=100, backend="reference")
        with MVNSolver(config) as solver:
            model = solver.model(solver_sigma, mean=np.linspace(-0.5, 1.0, n))
            model.probability(*_box(n), rng=0)
            assert requested == ["reference"]
            requested.clear()
            model.confidence_region(0.3, algorithm=algorithm, rng=0, levels=[1, 10, n])
        assert requested == ["reference"]

    def test_confidence_region_rejects_baselines(self, solver_sigma):
        with MVNSolver("mc") as solver:
            with pytest.raises(ValueError, match="factor-based"):
                solver.model(solver_sigma).confidence_region(0.3)
