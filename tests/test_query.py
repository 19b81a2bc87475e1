"""Tests for the declarative query layer (repro.query).

Five concerns:

* **validation** — NaN limits, inverted boxes and shape mismatches are
  rejected with one uniform ``ValueError`` at the query boundary, through
  every entry point (functional, solver, batched, serving),
* **planning** — the ``method="auto"`` decision rule (the argmin of modelled
  seconds, probing the rank only when it can change the answer) is
  deterministic, sidedness-invariant, picks what measurement says at the
  points its rates were fitted on, and is bit-identical to explicitly
  requesting the chosen method on dense and TLR fixtures,
* **adaptive accuracy** — ``target_error`` escalates the sample count until
  the standard error meets the target (or flags budget exhaustion cleanly),
  identically through all entry points for integer seeds,
* **observability** — every result carries ``details["plan"]``, and plans
  survive batch and serve round-trips,
* **serialization** — ``MVNQuery`` and ``MVNResult`` ``to_dict``/``from_dict``
  round-trip through JSON, including nested ``details`` trees and numpy
  arrays, and reject malformed wire payloads with a ``ValueError``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    FactorCache,
    MVNQuery,
    MVNResult,
    MVNSolver,
    QueryBroker,
    QueryPlanner,
    ServeConfig,
    SolverConfig,
    mvn_probability,
    mvn_probability_batch,
    plan_query,
)
from repro.distributed.pmvn_model import KernelRates
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.query import DEFAULT_BUDGET_MULTIPLIER, PlannerRates, next_sample_count


@pytest.fixture
def sigma25() -> np.ndarray:
    geom = Geometry.regular_grid(5, 5)
    return build_covariance(ExponentialKernel(1.0, 0.4), geom.locations, nugget=1e-6)


@pytest.fixture
def smooth36() -> np.ndarray:
    """A smooth (long-range) field: low-rank off-diagonal structure."""
    geom = Geometry.regular_grid(6, 6)
    return build_covariance(ExponentialKernel(1.0, 0.5), geom.locations, nugget=1e-4)


def _box(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.full(n, -np.inf), np.linspace(0.4, 1.6, n)


#: a planner whose rate table prices dense tile flops dear and rank-k
#: kernels cheap, so toy fixtures tiled at TINY_TILE exercise the TLR side
#: of the argmin (the decision rule is the production one, only the prices
#: differ)
TINY_PLANNER = QueryPlanner(PlannerRates(
    KernelRates(core_gflops=1e-3, qmc_rows_per_second=1e6),
    lowrank_gflops=1e3, task_seconds=0.0,
))
TINY_TILE = 18


def _field(side: int, range_: float, nugget: float = 1e-6, n: int | None = None) -> np.ndarray:
    locations = Geometry.regular_grid(side, side).locations[:n]
    return build_covariance(ExponentialKernel(1.0, range_), locations, nugget=nugget)


class TestMVNQueryValidation:
    def test_rejects_nan_limits(self):
        with pytest.raises(ValueError, match="must not contain NaN"):
            MVNQuery([0.0, np.nan], [1.0, 1.0])

    def test_rejects_inverted_box(self):
        with pytest.raises(ValueError, match="lower limit exceeds upper limit"):
            MVNQuery([0.5], [-0.5])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            MVNQuery([0.0, 0.0], [1.0])

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError, match="mean"):
            MVNQuery([0.0, 0.0], [1.0, 1.0], mean=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            MVNQuery([0.0, 0.0], [1.0, 1.0], mean=np.nan)

    def test_rejects_bad_sampling_contract(self):
        with pytest.raises(ValueError, match="n_samples"):
            MVNQuery([0.0], [1.0], n_samples=0)
        with pytest.raises(ValueError, match="target_error"):
            MVNQuery([0.0], [1.0], target_error=0.0)
        with pytest.raises(ValueError, match="max_samples"):
            MVNQuery([0.0], [1.0], n_samples=100, max_samples=50)

    def test_qmc_name_canonicalized_at_construction(self, sigma25):
        """Unknown QMC names fail at the boundary; aliases take the canonical name."""
        with pytest.raises(ValueError, match="unknown QMC sequence 'nope'"):
            MVNQuery([0.0], [1.0], qmc="nope")
        with pytest.raises(ValueError, match="unknown QMC sequence 'nope'"):
            SolverConfig(method="tlr", qmc="nope")
        assert MVNQuery([0.0], [1.0], qmc="Lattice").qmc == "richtmyer"
        assert SolverConfig(qmc="Lattice").qmc == "richtmyer"
        # the functional API raises before it pays for a factorization
        cache = FactorCache()
        n = sigma25.shape[0]
        with pytest.raises(ValueError, match="unknown QMC sequence 'nope'"):
            mvn_probability(*_box(n), sigma25, method="tlr", qmc="nope", cache=cache)
        assert cache.factorize_count == 0

    def test_derived_properties(self):
        q = MVNQuery([-np.inf, 0.0], [1.0, np.inf], tag={"cell": 3})
        assert q.n == 2
        assert q.one_sided_fraction == 0.5
        assert not q.wants_adaptive
        assert q.tag == {"cell": 3}
        assert MVNQuery([0.0], [1.0], target_error=1e-3).wants_adaptive

    def test_frozen(self):
        q = MVNQuery([0.0], [1.0])
        with pytest.raises(AttributeError):
            q.n_samples = 7

    def test_uniform_rejection_across_entry_points(self, sigma25):
        """Every entry point raises the same ValueError for a bad box."""
        n = sigma25.shape[0]
        a = np.zeros(n)
        b = np.ones(n)
        a_bad = a.copy()
        a_bad[3] = 2.0  # exceeds b[3] = 1.0
        expected = "lower limit exceeds upper limit at index 3"

        with pytest.raises(ValueError, match=expected):
            mvn_probability(a_bad, b, sigma25, method="sov", n_samples=50)
        with MVNSolver(SolverConfig(method="dense", n_samples=50)) as solver:
            model = solver.model(sigma25)
            with pytest.raises(ValueError, match=expected):
                model.probability(a_bad, b)
        with pytest.raises(ValueError, match=expected):
            mvn_probability_batch([(a, b), (a_bad, b)], sigma25, n_samples=50)
        with QueryBroker(ServeConfig(n_shards=1, worker_mode="thread"),
                         SolverConfig(method="dense", n_samples=50)) as broker:
            with pytest.raises(ValueError, match=expected):
                broker.submit(a_bad, b, sigma25)
            with pytest.raises(ValueError, match="must not contain NaN"):
                broker.submit(np.full(n, np.nan), b, sigma25)


class TestQueryWireForm:
    """``MVNQuery.to_dict``/``from_dict``: the gateway's request encoding."""

    def test_round_trip_through_json(self):
        query = MVNQuery([-np.inf, 0.0], [1.0, np.inf], mean=np.array([0.1, -0.2]),
                         n_samples=300, rng=np.int64(5), qmc="Lattice",
                         target_error=1e-3, max_samples=5000, tag="cell-7")
        payload = json.loads(json.dumps(query.to_dict()))
        assert payload["mean"] == [0.1, -0.2]
        assert payload["rng"] == 5 and isinstance(payload["rng"], int)
        restored = MVNQuery.from_dict(payload)
        np.testing.assert_array_equal(restored.a, query.a)
        np.testing.assert_array_equal(restored.b, query.b)
        np.testing.assert_array_equal(restored.mean, query.mean)
        for name in ("n_samples", "rng", "qmc", "target_error", "max_samples", "tag"):
            assert getattr(restored, name) == getattr(query, name), name

    def test_generator_rng_does_not_serialize(self):
        query = MVNQuery([0.0], [1.0], rng=np.random.default_rng(1))
        with pytest.raises(TypeError, match="only integer seeds"):
            query.to_dict()

    def test_non_primitive_tag_does_not_serialize(self):
        with pytest.raises(TypeError, match="tag must be a JSON primitive.*tuple"):
            MVNQuery([0.0], [1.0], tag=(1, 2)).to_dict()

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([[0.0], [1.0]], "must be a JSON object, got list"),
            ({"a": [0.0], "b": [1.0], "samples": 10}, r"unknown MVNQuery field\(s\): \['samples'\]"),
            ({"a": [0.0]}, r"missing field\(s\): \['b'\]"),
        ],
        ids=["not-an-object", "unknown-field", "missing-limits"],
    )
    def test_from_dict_rejects_malformed_payloads(self, payload, message):
        with pytest.raises(ValueError, match=message):
            MVNQuery.from_dict(payload)


class TestBatchBoundary:
    def test_batch_validates_before_factorizing(self, sigma25):
        """A bad box must be rejected before any factorization is paid."""
        n = sigma25.shape[0]
        a = np.zeros(n)
        b = np.full(n, -1.0)  # inverted everywhere
        with MVNSolver(SolverConfig(method="dense", n_samples=50)) as solver:
            model = solver.model(sigma25)
            with pytest.raises(ValueError, match="lower limit exceeds upper limit"):
                model.probability_batch([(a, np.ones(n)), (a, b)])
            assert model.factor is None
            assert solver.cache.factorize_count == 0
        with MVNSolver(SolverConfig(method="dense", n_samples=50)) as solver:
            with pytest.raises(ValueError, match="box 1 must be an"):
                solver.model(sigma25).probability_batch([(a, np.ones(n)), a])

    def test_batch_rejects_undersized_budget_like_single(self, sigma25):
        """max_samples < n_samples raises the same error on both paths."""
        n = sigma25.shape[0]
        a, b = _box(n)
        expected = r"max_samples \(50\) must be >= the initial n_samples \(100\)"
        with MVNSolver(SolverConfig(method="dense")) as solver:
            model = solver.model(sigma25)
            with pytest.raises(ValueError, match=expected):
                model.probability(a, b, n_samples=100, target_error=1e-9, max_samples=50)
            with pytest.raises(ValueError, match=expected):
                model.probability_batch([(a, b)], n_samples=100,
                                        target_error=1e-9, max_samples=50)


class TestPlanner:
    def test_small_n_plans_dense(self, sigma25):
        plan = plan_query(sigma25, SolverConfig(method="auto", n_samples=200))
        assert plan.method == "dense"
        assert plan.auto
        assert plan.backend is not None
        # one tile: TLR at rank 1 costs what dense does, so no probe runs
        assert plan.probe is None
        assert "rank 1, no probe needed" in plan.reason

    @pytest.mark.parametrize("planner", [QueryPlanner(), TINY_PLANNER], ids=["fitted", "tiny"])
    @pytest.mark.parametrize("tile_size", [None, 12, TINY_TILE])
    def test_method_is_the_argmin_of_modelled_seconds(self, planner, tile_size, sigma25, smooth36):
        for sigma in (sigma25, smooth36):
            config = SolverConfig(method="auto", n_samples=200, tile_size=tile_size)
            plan = planner.plan(sigma, config)
            totals = {name: parts["total"] for name, parts in plan.costs.items()}
            assert plan.method == min(("dense", "tlr"), key=totals.get)
            for total in totals.values():
                assert f"{total:.3g} s" in plan.reason

    @pytest.mark.parametrize("side, range_, nugget, n_samples, method, probed", [
        (16, 0.1, 1e-6, 256, "dense", False),     # serve_gateway's covariances
        (32, 0.234, 1e-6, 1000, "dense", True),   # the crd_tlr field
        (32, 0.5, 1e-4, 200, "dense", True),      # distributed gate, large field
        (45, 0.234, 1e-6, 1000, "tlr", True),     # the crd_tlr field, 45 x 45
        (40, 0.3, 1e-6, 4000, "tlr", True),       # planner gate, lowrank_tlr
    ])
    def test_committed_rates_pick_the_measured_winner(self, side, range_, nugget, n_samples,
                                                      method, probed):
        sigma = _field(side, range_, nugget)
        plan = plan_query(sigma, SolverConfig(method="auto", n_samples=n_samples))
        assert plan.method == method
        assert (plan.probe is not None) == probed

    def test_large_lowrank_plans_tlr(self, smooth36):
        config = SolverConfig(method="auto", n_samples=200, tile_size=TINY_TILE)
        plan = TINY_PLANNER.plan(smooth36, config)
        assert plan.method == "tlr"
        assert plan.probe is not None
        assert f"probe rank {plan.probe['est_rank']}" in plan.reason
        assert plan.costs  # both candidates modelled

    def test_incompressible_plans_dense(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((30, 30))
        noisy = a @ a.T + 30.0 * np.eye(30)  # no off-diagonal decay
        plan = TINY_PLANNER.plan(noisy, SolverConfig(method="auto", tile_size=TINY_TILE))
        assert plan.method == "dense"
        assert plan.probe["rank_ratio"] == 1.0  # full rank: TLR cannot win

    def test_explicit_method_passes_through(self, sigma25):
        plan = plan_query(sigma25, SolverConfig(method="sov", n_samples=100))
        assert plan.method == "sov"
        assert not plan.auto
        assert plan.backend is None  # baselines have no tile kernel

    def test_sidedness_never_flips_the_choice(self, smooth36):
        config = SolverConfig(method="auto", n_samples=200)
        one_sided = TINY_PLANNER.plan(smooth36, config, one_sided_fraction=0.5)
        two_sided = TINY_PLANNER.plan(smooth36, config, one_sided_fraction=0.0)
        assert one_sided.method == two_sided.method
        # ... although it does discount the modelled kernel phase
        assert one_sided.costs["dense"]["kernel"] < two_sided.costs["dense"]["kernel"]

    def test_plan_describe_renders(self, smooth36):
        plan = TINY_PLANNER.plan(
            smooth36, SolverConfig(method="auto", n_samples=300, tile_size=TINY_TILE),
            target_error=1e-3,
        )
        text = plan.describe()
        assert "method           : tlr" in text
        assert "target error     : 0.001" in text
        assert "structure probe" in text
        assert "cost estimates" in text

    def test_adaptive_defaults(self, sigma25):
        config = SolverConfig(method="dense", n_samples=250)
        plan = plan_query(sigma25, config, target_error=1e-3)
        assert plan.max_samples == DEFAULT_BUDGET_MULTIPLIER * 250
        plan = plan_query(sigma25, config, target_error=1e-3, max_samples=4000)
        assert plan.max_samples == 4000
        assert plan_query(sigma25, config).max_samples == 250  # no target: one round

    def test_next_sample_count_schedule(self):
        # grows by at least 2x, follows MC scaling with safety margin
        assert next_sample_count(100, 4e-3, 2e-3, 10_000) == 480
        assert next_sample_count(100, 2.1e-3, 2e-3, 10_000) == 200
        # clamps to the budget, stops when nothing is left
        assert next_sample_count(100, 4e-3, 2e-3, 300) == 300
        assert next_sample_count(300, 4e-3, 2e-3, 300) is None
        # target already met
        assert next_sample_count(100, 1e-3, 2e-3, 10_000) is None

    def test_model_plan_is_memoized_and_deterministic(self, smooth36):
        config = SolverConfig(method="auto", n_samples=200, tile_size=TINY_TILE)
        with MVNSolver(config, planner=TINY_PLANNER) as solver:
            model = solver.model(smooth36)
            first = model.plan()
            second = model.plan()
            assert first.method == second.method == "tlr"
            assert first.probe is second.probe  # probe ran once


class TestAutoParity:
    def test_auto_matches_dense_on_small_fixture(self, sigma25):
        n = sigma25.shape[0]
        a, b = _box(n)
        explicit = mvn_probability(a, b, sigma25, method="dense", n_samples=300, rng=11)
        auto = mvn_probability(a, b, sigma25, method="auto", n_samples=300, rng=11)
        assert auto.probability == explicit.probability
        assert auto.error == explicit.error
        assert auto.method == explicit.method == "pmvn-dense"
        assert auto.details["plan"]["method"] == "dense"
        assert auto.details["plan"]["auto"] is True
        assert explicit.details["plan"]["auto"] is False

    def test_auto_matches_tlr_on_lowrank_fixture(self, smooth36):
        n = smooth36.shape[0]
        a, b = _box(n)
        explicit = mvn_probability(a, b, smooth36, method="tlr", n_samples=300, rng=11,
                                   tile_size=TINY_TILE)
        with MVNSolver(SolverConfig(method="auto", n_samples=300, tile_size=TINY_TILE),
                       planner=TINY_PLANNER) as solver:
            auto = solver.model(smooth36).probability(a, b, rng=11)
        assert auto.details["plan"]["method"] == "tlr"
        assert auto.probability == explicit.probability
        assert auto.error == explicit.error
        assert auto.method == "pmvn-tlr"

    def test_auto_batch_matches_explicit_batch(self, sigma25):
        n = sigma25.shape[0]
        rng = np.random.default_rng(5)
        boxes = [(np.full(n, -np.inf), rng.uniform(0.3, 2.0, n)) for _ in range(3)]
        explicit = mvn_probability_batch(boxes, sigma25, method="dense", n_samples=200, rng=3)
        auto = mvn_probability_batch(boxes, sigma25, method="auto", n_samples=200, rng=3)
        for e_res, a_res in zip(explicit, auto):
            assert a_res.probability == e_res.probability
            assert a_res.error == e_res.error
            assert a_res.details["plan"]["method"] == "dense"

    def test_auto_confidence_region(self, sigma25):
        n = sigma25.shape[0]
        mean = np.linspace(-0.5, 1.0, n)
        with MVNSolver(SolverConfig(method="auto", n_samples=150)) as solver:
            result = solver.model(sigma25, mean=mean).confidence_region(0.4, rng=7)
        with MVNSolver(SolverConfig(method="dense", n_samples=150)) as solver:
            explicit = solver.model(sigma25, mean=mean).confidence_region(0.4, rng=7)
        np.testing.assert_array_equal(result.confidence_function, explicit.confidence_function)

    def test_auto_honours_prebound_factor(self, smooth36):
        from repro import factorize

        factor = factorize(smooth36, method="tlr")
        with MVNSolver(SolverConfig(method="auto", n_samples=150)) as solver:
            model = solver.model(smooth36, factor=factor)
            plan = model.plan()
            assert plan.method == "tlr"
            assert "pre-bound" in plan.reason
            result = model.probability(*_box(smooth36.shape[0]), rng=2)
        assert result.method == "pmvn-tlr"
        assert solver.cache.factorize_count == 0

    def test_auto_model_holds_the_one_factor_it_plans(self, smooth36):
        """An auto model factorizes the one method it plans."""
        with MVNSolver(SolverConfig(method="auto", n_samples=100, tile_size=TINY_TILE),
                       planner=TINY_PLANNER) as solver:
            model = solver.model(smooth36)
            model.probability(*_box(smooth36.shape[0]), rng=0)  # plans tlr
            assert model.factor.kind == model.plan().method == "tlr"
            assert model.factorize() is model.factor
            assert solver.cache.factorize_count == 1


class TestOneDecisionPerModel:
    """A model plans once; a query only sets its sample schedule."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"plan": 0, "probe": 0}
        for name, key in (("plan", "plan"), ("probe_structure", "probe")):
            def counting(self, *args, _real=getattr(QueryPlanner, name), _key=key, **kwargs):
                counts[_key] += 1
                return _real(self, *args, **kwargs)
            monkeypatch.setattr(QueryPlanner, name, counting)
        return counts

    @pytest.mark.parametrize("method", ["dense", "auto"])
    def test_every_call_of_a_model_reads_one_plan(self, calls, smooth36, method):
        n = smooth36.shape[0]
        a, b = _box(n)
        u = 0.05 * np.random.default_rng(3).standard_normal((n, 2))
        config = SolverConfig(method=method, n_samples=100, tile_size=TINY_TILE)
        with MVNSolver(config, planner=TINY_PLANNER) as solver:
            model = solver.model(smooth36, mean=0.1)
            for seed in range(3):
                model.probability(a, b, rng=seed)
            model.probability_batch([(a, b), (a, b - 0.2)], rng=0)
            model.probability(a, b, rng=0, target_error=1e-4, max_samples=400)
            model.confidence_region(0.2, rng=0)
            model.factorize()
            # the auto plan of this fixture is TLR, which only the probe's
            # rank can settle
            assert calls == {"plan": 1, "probe": 1 if method == "auto" else 0}
            assert model.plan().method == ("tlr" if method == "auto" else "dense")
            for downdate in (False, True):
                calls.update(plan=0, probe=0)
                model = model.update(u, downdate=downdate)
                model.probability(a, b, rng=0)
                model.probability_batch([(a, b), (a, b - 0.2)], rng=0)
                model.probability(a, b, rng=0, target_error=1e-4, max_samples=400)
                assert calls == {"plan": 1, "probe": 0}
                assert model._sigma_arr is None  # the covariance was never assembled


class TestAdaptiveAccuracy:
    def test_target_met_with_escalation(self, sigma25):
        n = sigma25.shape[0]
        a, b = _box(n)
        loose = mvn_probability(a, b, sigma25, method="dense", n_samples=100, rng=9)
        target = loose.error / 4.0  # unreachable at N=100, reachable after escalation
        result = mvn_probability(
            a, b, sigma25, method="dense", n_samples=100, rng=9, target_error=target
        )
        plan = result.details["plan"]
        assert result.error <= target
        assert plan["target_met"] is True
        assert plan["rounds"] >= 2
        assert plan["samples_used"] > result.n_samples >= 100
        assert plan["target_error"] == target

    def test_budget_exhaustion_flags_cleanly(self, sigma25):
        n = sigma25.shape[0]
        a, b = _box(n)
        result = mvn_probability(
            a, b, sigma25, method="dense", n_samples=100, rng=9,
            target_error=1e-9, max_samples=400,
        )
        plan = result.details["plan"]
        assert result.error > 1e-9
        assert plan["target_met"] is False
        assert plan["rounds"] == 2  # 100 then the 400 budget cap
        assert plan["samples_used"] == 500
        assert result.n_samples == 400

    def test_single_and_batch_escalate_identically(self, sigma25):
        n = sigma25.shape[0]
        a, b = _box(n)
        single = mvn_probability(
            a, b, sigma25, method="dense", n_samples=100, rng=9, target_error=2e-3
        )
        batched = mvn_probability_batch(
            [(a, b), (a, b - 0.2)], sigma25, method="dense", n_samples=100,
            rng=9, target_error=2e-3,
        )
        assert batched[0].probability == single.probability
        assert batched[0].error == single.error
        assert batched[0].details["plan"]["rounds"] == single.details["plan"]["rounds"]
        for result in batched:
            assert result.error <= 2e-3
            assert result.details["plan"]["target_met"] is True

    def test_adaptive_works_for_baselines(self, sigma25):
        n = sigma25.shape[0]
        a, b = _box(n)
        result = mvn_probability(
            a, b, sigma25, method="sov", n_samples=100, rng=4, target_error=2e-3
        )
        assert result.error <= 2e-3
        assert result.details["plan"]["method"] == "sov"


class TestServeQueries:
    @pytest.fixture
    def broker(self):
        with QueryBroker(ServeConfig(n_shards=1, worker_mode="thread", batch_window=0.01),
                         SolverConfig(method="dense", n_samples=200)) as broker:
            yield broker

    def test_submit_query_object(self, sigma25, broker):
        n = sigma25.shape[0]
        a, b = _box(n)
        query = MVNQuery(a, b, rng=3, tag="q1")
        served = broker.submit(query, sigma25).result()
        classic = broker.submit(a, b, sigma25, rng=3).result()
        assert served.probability == classic.probability
        assert served.details["plan"]["method"] == "dense"

    def test_submit_async_accepts_query_objects(self, sigma25, broker):
        import asyncio

        n = sigma25.shape[0]
        a, b = _box(n)

        async def run():
            served = await broker.submit_async(MVNQuery(a, b, rng=3), sigma25)
            classic = await broker.submit_async(a, b, sigma25, rng=3)
            return served, classic

        served, classic = asyncio.run(run())
        assert served.probability == classic.probability

    def test_submit_query_rejects_duplicate_overrides(self, sigma25, broker):
        query = MVNQuery(*_box(sigma25.shape[0]), rng=3)
        with pytest.raises(TypeError, match="duplicate keyword"):
            broker.submit(query, sigma25, n_samples=50)

    def test_submit_query_takes_sigma_by_keyword_only_once(self, sigma25, broker):
        """``submit(query, sigma=...)`` works; limits beside a query do not."""
        n = sigma25.shape[0]
        a, b = _box(n)
        query = MVNQuery(a, b, rng=3)
        by_keyword = broker.submit(query, sigma=sigma25).result(timeout=60)
        positional = broker.submit(query, sigma25).result(timeout=60)
        assert by_keyword.probability == positional.probability
        with pytest.raises(TypeError, match="takes no separate b= limits"):
            broker.submit(query, b, sigma25)

    def test_adaptive_through_serve_matches_direct(self, sigma25, broker):
        n = sigma25.shape[0]
        a, b = _box(n)
        query = MVNQuery(a, b, rng=9, n_samples=100, target_error=2e-3)
        served = broker.submit(query, sigma25).result()
        with MVNSolver(SolverConfig(method="dense", n_samples=200)) as solver:
            direct = solver.model(sigma25).probability(
                a, b, rng=9, n_samples=100, target_error=2e-3
            )
        assert served.probability == direct.probability
        assert served.error == direct.error
        assert served.error <= 2e-3
        assert served.details["plan"] == direct.details["plan"]
        assert served.details["serve"]["shard"] == 0

    def test_auto_with_target_through_serve(self, sigma25):
        """method='auto' + target_error: served == direct, plan recorded."""
        n = sigma25.shape[0]
        a, b = _box(n)
        config = SolverConfig(method="auto", n_samples=100)
        with QueryBroker(ServeConfig(n_shards=1, worker_mode="thread", batch_window=0.01),
                         config) as broker:
            served = broker.submit(
                MVNQuery(a, b, rng=9, target_error=2e-3), sigma25
            ).result()
        with MVNSolver(config) as solver:
            direct = solver.model(sigma25).probability(a, b, rng=9, target_error=2e-3)
        assert served.probability == direct.probability
        assert served.error == direct.error <= 2e-3
        assert served.details["plan"]["auto"] is True
        assert served.details["plan"]["method"] == "dense"
        assert served.details["plan"] == direct.details["plan"]

    def test_plan_contract_splits_batches(self, sigma25):
        """Requests with different accuracy contracts must not share a sweep."""
        n = sigma25.shape[0]
        a, b = _box(n)
        with QueryBroker(ServeConfig(n_shards=1, worker_mode="thread", batch_window=0.25),
                         SolverConfig(method="dense", n_samples=200)) as broker:
            plain = broker.submit(a, b, sigma25, rng=3)
            strict = broker.submit(MVNQuery(a, b, rng=3, target_error=5e-3), sigma25)
            plain.result(), strict.result()
            assert broker.stats().batches == 2

    def test_process_shards_ship_json_safe_results(self, sigma25):
        """The multiprocessing shard path round-trips results via to_dict."""
        n = sigma25.shape[0]
        a, b = _box(n)
        with QueryBroker(ServeConfig(n_shards=1, worker_mode="process", batch_window=0.01),
                         SolverConfig(method="dense", n_samples=150)) as broker:
            served = broker.submit(a, b, sigma25, rng=5).result(timeout=120)
        with MVNSolver(SolverConfig(method="dense", n_samples=150)) as solver:
            direct = solver.model(sigma25).probability(a, b, rng=5)
        assert served.probability == direct.probability
        assert served.error == direct.error
        assert served.details["plan"] == direct.details["plan"]
        assert served.details["serve"]["batch_size"] == 1


class TestResultSerialization:
    def test_round_trip_through_json(self):
        result = MVNResult(
            0.42, 3e-3, 800, 25, method="pmvn-dense",
            details={
                "plan": {"method": "dense", "rounds": 2, "target_met": True},
                "serve": {"shard": 1, "batch_size": 4},
                "prefix_probabilities": np.array([0.9, 0.6, 0.42]),
                "tile_size": np.int64(8),
            },
        )
        payload = json.loads(json.dumps(result.to_dict()))
        restored = MVNResult.from_dict(payload)
        assert restored.probability == result.probability
        assert restored.error == result.error
        assert restored.n_samples == result.n_samples
        assert restored.dimension == result.dimension
        assert restored.method == result.method
        assert restored.details["plan"] == result.details["plan"]
        assert restored.details["serve"] == result.details["serve"]
        np.testing.assert_array_equal(
            restored.details["prefix_probabilities"],
            result.details["prefix_probabilities"],
        )
        assert isinstance(restored.details["prefix_probabilities"], np.ndarray)
        assert restored.details["tile_size"] == 8

    def test_exotic_details_fall_back_to_repr(self):
        result = MVNResult(0.1, 1e-3, 10, 2, details={"tag": object()})
        payload = result.to_dict()
        json.dumps(payload)  # must not raise
        assert isinstance(payload["details"]["tag"], str)

    def test_marker_shaped_caller_dicts_stay_dicts(self):
        """A caller dict keyed like an encoding marker is escaped, not decoded."""
        details = {"user": {"__ndarray__": "not an array"},
                   "nested": {"__escaped-dict__": {"k": 1}}}
        result = MVNResult(0.5, 1e-3, 100, 2, details=details)
        restored = MVNResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.details == details

    def test_arrays_inside_lists_round_trip(self):
        details = {"history": [np.array([0.5, 0.25]), {"ranks": np.arange(3)}]}
        result = MVNResult(0.5, 1e-3, 100, 2, details=details)
        restored = MVNResult.from_dict(json.loads(json.dumps(result.to_dict())))
        first, second = restored.details["history"]
        assert isinstance(first, np.ndarray) and first.dtype == np.float64
        np.testing.assert_array_equal(first, [0.5, 0.25])
        assert second["ranks"].dtype == np.arange(3).dtype
        np.testing.assert_array_equal(second["ranks"], [0, 1, 2])

    @pytest.mark.parametrize(
        "change, message",
        [
            (None, "must be a JSON object, got list"),
            ({"drop": "error"}, r"missing field\(s\): \['error'\]"),
            ({"details": [1, 2]}, "'details' must be an object, got list"),
            ({"n_samples": "many"}, "malformed MVNResult payload"),
            ({"details": {"x": {"__ndarray__": [1, 2]}}}, "malformed ndarray encoding"),
        ],
        ids=["not-an-object", "missing-field", "details-not-an-object",
             "non-numeric-count", "malformed-array"],
    )
    def test_from_dict_rejects_malformed_payloads(self, change, message):
        payload = MVNResult(0.5, 1e-3, 100, 2).to_dict()
        if change is None:
            payload = [payload]
        elif "drop" in change:
            del payload[change["drop"]]
        else:
            payload.update(change)
        with pytest.raises(ValueError, match=message):
            MVNResult.from_dict(payload)

    def test_real_result_round_trips(self, sigma25):
        a, b = _box(sigma25.shape[0])
        result = mvn_probability(a, b, sigma25, method="dense", n_samples=150, rng=1)
        restored = MVNResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.probability == result.probability
        assert restored.details["plan"] == result.details["plan"]


class TestPlanCLI:
    def test_plan_prints_without_executing(self, capsys):
        from repro import cli

        code = cli.main(["plan", "--grid", "6", "--auto", "--samples", "300",
                         "--target-error", "0.001"])
        out = capsys.readouterr().out
        assert code == 0
        assert "method           : dense" in out
        assert "target error     : 0.001" in out
        assert "probability" not in out  # planned, not executed

    def test_mvn_auto_with_target(self, capsys):
        from repro import cli

        code = cli.main(["mvn", "--grid", "5", "--auto", "--samples", "200",
                        "--target-error", "0.005", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "plan             : method=dense" in out
        assert "accuracy target  : 0.005 met" in out

    def test_batch_auto_with_target(self, capsys, tmp_path):
        from repro import cli

        boxes = np.stack([
            np.stack([np.full(25, -np.inf), np.full(25, 1.0)]),
            np.stack([np.full(25, -np.inf), np.full(25, 2.0)]),
        ])
        path = tmp_path / "boxes.npy"
        np.save(path, boxes)
        code = cli.main(["batch", "--grid", "5", "--boxes", str(path), "--auto",
                         "--samples", "200", "--target-error", "0.005", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "plan             : method=dense" in out
        assert "met for 2/2" in out
