"""Tests for the multi-query pipeline subsystem (repro.query.pipeline).

Five concerns:

* **construction** — every ``add_*`` call validates immediately (duplicate
  names, unknown refs, unknown upstreams, malformed parameters), freezing
  seals the graph, and the generators expand into the documented nodes,
* **compilation** — same-settings query nodes fuse into one sweep stage;
  generator seeds and explicit per-query means stay unfused; the sharing
  edges are explicit,
* **planning** — ``plan_pipeline`` resolves one method per covariance,
  counts fused queries, and models costs once per ref,
* **execution** — the solver executor is bit-identical to the loop of
  single calls it replaces, agrees with the broker executor, and honors
  ``negate=True`` exactly like ``negative_confidence_region``,
* **adaptive schedule** — ``escalate_batch`` implements the escalation
  loop shared by every entry point; a single query is a batch of one
  (end-to-end through ``Model.query`` in ``tests/test_query.py``).
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro import MVNQuery, MVNSolver, QueryBroker, ServeConfig, SolverConfig
from repro.batch import FactorCache
from repro.core.crd import prefix_boxes
from repro.distributed import ClusterSpec
from repro.distributed.pmvn_model import KernelRates
from repro.excursion import excursion_analysis, excursion_threshold_sweep, negative_confidence_region
from repro.kernels import ExponentialKernel, Geometry, build_covariance
from repro.query import (
    PlannerRates,
    QueryPipeline,
    QueryPlanner,
    escalate_batch,
    execute_pipeline,
    simulate_pipeline,
)


def _field(n: int) -> tuple[np.ndarray, np.ndarray]:
    pts = np.linspace(0.0, 1.0, n)
    sigma = np.exp(-np.abs(pts[:, None] - pts[None, :]) / 0.3) + 1e-6 * np.eye(n)
    return sigma, np.linspace(-1.0, 1.0, n)


@pytest.fixture
def sigma8() -> np.ndarray:
    return _field(8)[0]


def _query(n: int, lo: float = 0.0, **kwargs) -> MVNQuery:
    return MVNQuery(np.full(n, lo), np.full(n, np.inf), **kwargs)


class TestConstruction:
    def test_duplicate_node_name(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        pipe.add_query("q", _query(8), sigma="s")
        with pytest.raises(ValueError, match="duplicate node name"):
            pipe.add_query("q", _query(8), sigma="s")

    def test_duplicate_sigma_name(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        with pytest.raises(ValueError, match="duplicate sigma ref"):
            pipe.add_sigma("s", sigma8)

    def test_unknown_sigma_ref(self, sigma8):
        pipe = QueryPipeline()
        with pytest.raises(ValueError, match="unknown sigma ref"):
            pipe.add_query("q", _query(8), sigma="nope")
        with pytest.raises(ValueError, match="unknown sigma ref"):
            pipe.add_crd("c", sigma="nope", threshold=0.0)

    def test_unknown_upstream(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        with pytest.raises(ValueError, match="unknown upstream node"):
            pipe.add_query("q", _query(8), sigma="s", after=("ghost",))
        pipe.add_query("q", _query(8), sigma="s")
        with pytest.raises(ValueError, match="unknown upstream node"):
            pipe.add_map("m", lambda r: r, "ghost")
        with pytest.raises(ValueError, match="unknown upstream node"):
            pipe.add_combine("c", lambda *r: r, ("q", "ghost"))

    def test_dimension_mismatch(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        with pytest.raises(ValueError, match="dimension"):
            pipe.add_query("q", _query(5), sigma="s")

    def test_query_type_checked(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        with pytest.raises(ValueError, match="needs an MVNQuery"):
            pipe.add_query("q", object(), sigma="s")

    def test_crd_parameter_validation(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        with pytest.raises(ValueError, match="finite threshold"):
            pipe.add_crd("c", sigma="s", threshold=np.nan)
        with pytest.raises(ValueError, match="unknown algorithm"):
            pipe.add_crd("c", sigma="s", threshold=0.0, algorithm="magic")
        with pytest.raises(ValueError, match="n_samples"):
            pipe.add_crd("c", sigma="s", threshold=0.0, n_samples=0)
        with pytest.raises(ValueError, match="nugget"):
            pipe.add_crd("c", sigma="s", threshold=0.0, nugget=-1.0)

    def test_reduction_validation(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        pipe.add_query("q", _query(8), sigma="s")
        with pytest.raises(ValueError, match="needs a callable"):
            pipe.add_map("m", 42, "q")
        with pytest.raises(ValueError, match="at least one source"):
            pipe.add_combine("c", lambda *r: r, ())

    def test_sweep_generator_validation(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        with pytest.raises(ValueError, match="at least one threshold"):
            pipe.add_threshold_sweep("t", [], sigma="s")
        with pytest.raises(ValueError, match="finite"):
            pipe.add_threshold_sweep("t", [0.0, np.inf], sigma="s")
        with pytest.raises(ValueError, match="at least one threshold"):
            pipe.add_excursion_sweep("e", [], sigma="s")

    def test_prefix_chain_queries_are_the_crd_prefix_boxes(self, sigma8):
        a = np.linspace(-0.5, 0.5, 8)
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        pipe.add_prefix_chain("chain", a, sigma="s", sizes=[5, 2, 8, 2])
        sizes, boxes = prefix_boxes(a, [5, 2, 8, 2])
        assert list(sizes) == [2, 5, 8]
        members = [pipe.node(name).query for name in pipe.node("chain").inputs]
        assert [query.tag for query in members] == [2, 5, 8]
        for query, (lower, upper) in zip(members, boxes):
            assert np.array_equal(query.a, lower) and np.array_equal(query.b, upper)

    def test_prefix_chain_limits_must_match_the_sigma_ref(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        with pytest.raises(ValueError, match="limits have length 5 but sigma ref 's' has dimension 8"):
            pipe.add_prefix_chain("chain", np.zeros(5), sigma="s")
        assert pipe.node_names == ()

    def test_empty_pipeline_cannot_freeze(self):
        with pytest.raises(ValueError, match="has no nodes"):
            QueryPipeline(name="empty").freeze()

    def test_frozen_rejects_mutation(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        pipe.add_query("q", _query(8), sigma="s")
        pipe.compile()
        assert pipe.frozen
        with pytest.raises(ValueError, match="frozen"):
            pipe.add_query("q2", _query(8), sigma="s")
        with pytest.raises(ValueError, match="frozen"):
            pipe.add_sigma("s2", sigma8)

    def test_introspection(self, sigma8):
        pipe = QueryPipeline(name="intro")
        pipe.add_sigma("s", sigma8)
        pipe.add_query("q", _query(8), sigma="s")
        pipe.add_map("m", lambda r: r.probability, "q")
        assert pipe.node_names == ("q", "m")
        assert pipe.sigma_names == ("s",)
        assert pipe.node("m").inputs == ("q",)
        assert pipe.sigma_ref("s").n == 8
        assert len(pipe) == 2


class TestCompilation:
    def test_threshold_sweep_fuses(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        pipe.add_threshold_sweep("sweep", [0.0, 0.3, 0.6], sigma="s",
                                 n_samples=100, rng=0)
        stages = pipe.compile()
        assert [stage.kind for stage in stages] == ["sweep", "python"]
        assert stages[0].fused and len(stages[0].nodes) == 3
        assert pipe.compile() is stages  # memoized
        edges = pipe.edges()
        assert edges["shared_sweep"] == [stages[0].nodes]
        assert len(edges["shared_factorization"]["s"]) == 3

    def test_generator_rng_does_not_fuse(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        rng = np.random.default_rng(0)
        pipe.add_query("a", _query(8, rng=rng), sigma="s")
        pipe.add_query("b", _query(8, 0.2, rng=rng), sigma="s")
        stages = pipe.compile()
        assert [stage.kind for stage in stages] == ["sweep", "sweep"]
        assert not any(stage.fused for stage in stages)

    def test_explicit_mean_does_not_fuse(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        pipe.add_query("a", _query(8, mean=np.zeros(8), rng=0), sigma="s")
        pipe.add_query("b", _query(8, 0.2, mean=np.zeros(8), rng=0), sigma="s")
        assert not any(stage.fused for stage in pipe.compile())

    def test_different_settings_do_not_fuse(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        pipe.add_query("a", _query(8, n_samples=100, rng=0), sigma="s")
        pipe.add_query("b", _query(8, n_samples=200, rng=0), sigma="s")
        assert not any(stage.fused for stage in pipe.compile())

    def test_explain_mentions_structure(self, sigma8):
        pipe = QueryPipeline(name="named")
        pipe.add_sigma("s", sigma8)
        pipe.add_threshold_sweep("sweep", [0.0, 0.5], sigma="s", rng=0)
        text = pipe.explain()
        assert "'named'" in text and "fused x2" in text and "'s'" in text


class TestPlanning:
    def test_plan_pipeline_whole_graph(self, sigma8):
        pipe = QueryPipeline(name="planned")
        pipe.add_sigma("s", sigma8)
        pipe.add_threshold_sweep("sweep", [0.0, 0.3, 0.6], sigma="s",
                                 n_samples=100, rng=0)
        plan = QueryPlanner().plan_pipeline(pipe, SolverConfig(method="dense"))
        assert plan.pipeline == "planned"
        assert plan.n_stages == 2
        assert plan.fused_queries == 3
        assert plan.sigma_plans["s"].method == "dense"
        assert plan.sigma_plans["s"].n_samples == 100
        assert plan.costs["total"] == pytest.approx(plan.costs["sigma:s"])
        text = plan.describe()
        assert "fused queries    : 3" in text and "method=dense" in text

    def test_stages_at_other_sample_sizes_run_the_ref_plan(self):
        """``auto`` is priced at the session's sample size: a stage that
        overrides it runs the ref's plan on the ref's one factor."""
        sigma = build_covariance(ExponentialKernel(1.0, 0.5),
                                 Geometry.regular_grid(6, 6).locations, nugget=1e-4)
        planner = QueryPlanner(PlannerRates(
            KernelRates(core_gflops=1.0, qmc_rows_per_second=1e6),
            lowrank_gflops=1.0, task_seconds=0.0,
        ))
        config = SolverConfig(method="auto", n_samples=200, tile_size=18)
        # at these rates N = 1000 alone would plan TLR, N = 200 dense
        assert planner.plan(sigma, config).method == "dense"
        assert planner.plan(sigma, replace(config, n_samples=1000)).method == "tlr"
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma)
        pipe.add_threshold_sweep("small", [0.0, 0.5], sigma="s", n_samples=200, rng=0)
        pipe.add_threshold_sweep("large", [0.0, 0.5], sigma="s", n_samples=1000, rng=0)
        plan = planner.plan_pipeline(pipe, config)
        assert plan.sigma_plans["s"].method == "dense"
        with MVNSolver(config, planner=planner) as solver:
            out = execute_pipeline(pipe, solver)
            assert solver.cache.factorize_count == 1
        for name in ("small[0]", "small[1]", "large[0]", "large[1]"):
            assert out[name].details["plan"]["method"] == "dense"
        assert out["large[0]"].n_samples == 1000


class TestSolverExecution:
    def test_fused_sweep_bit_identical_to_singles(self, sigma8):
        thresholds = [0.0, 0.25, 0.5]
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8, mean=np.linspace(-0.5, 0.5, 8))
        pipe.add_threshold_sweep("sweep", thresholds, sigma="s",
                                 n_samples=150, rng=0)
        with MVNSolver(SolverConfig(method="dense", n_samples=150)) as solver:
            out = execute_pipeline(pipe, solver)
            model = solver.model(sigma8, mean=np.linspace(-0.5, 0.5, 8))
            singles = [model.probability(np.full(8, u), np.full(8, np.inf),
                                         n_samples=150, rng=0)
                       for u in thresholds]
        for idx, single in enumerate(singles):
            assert out[f"sweep[{idx}]"].probability == single.probability
            assert out[f"sweep[{idx}]"].error == single.error
        gathered = out["sweep"]
        assert np.array_equal(gathered["probabilities"],
                              [r.probability for r in singles])
        assert out.plan.fused_queries == 3
        assert out.details["executor"] == "solver"
        assert "sweep" in out and len(out) == 4

    def test_broker_matches_solver(self, sigma8):
        pipe = QueryPipeline(name="parity")
        pipe.add_sigma("s", sigma8)
        pipe.add_threshold_sweep("sweep", [0.0, 0.4], sigma="s",
                                 n_samples=120, rng=7)
        with MVNSolver(SolverConfig(method="dense", n_samples=120)) as solver:
            via_solver = execute_pipeline(pipe, solver)
        with QueryBroker(ServeConfig(n_shards=1, worker_mode="thread"),
                         SolverConfig(method="dense", n_samples=120)) as broker:
            via_broker = execute_pipeline(pipe, broker)
        for name in ("sweep[0]", "sweep[1]"):
            assert via_broker[name].probability == via_solver[name].probability
        assert via_broker.plan is None
        assert via_broker.details["executor"] == "broker"

    def test_crd_on_broker_raises(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        pipe.add_crd("c", sigma="s", threshold=0.0, n_samples=100, rng=0)
        with QueryBroker(ServeConfig(n_shards=1, worker_mode="thread"),
                         SolverConfig(method="dense")) as broker:
            with pytest.raises(ValueError, match="box queries only"):
                execute_pipeline(pipe, broker)

    def test_negated_crd_matches_negative_confidence_region(self):
        sigma, mean = _field(12)
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma, mean=mean)
        pipe.add_crd("neg", sigma="s", threshold=0.2, negate=True,
                     n_samples=100, rng=0)
        with MVNSolver(SolverConfig(method="dense")) as solver:
            out = execute_pipeline(pipe, solver)
        direct = negative_confidence_region(sigma, mean, 0.2,
                                            n_samples=100, rng=0)
        assert np.array_equal(out["neg"].confidence_function,
                              direct.confidence_function)
        assert out["neg"].threshold == 0.2
        assert out["neg"].details["set_type"] == "negative"

    def test_wrong_executor_type(self, sigma8):
        pipe = QueryPipeline()
        pipe.add_sigma("s", sigma8)
        pipe.add_query("q", _query(8), sigma="s")
        with pytest.raises(TypeError, match="MVNSolver or QueryBroker"):
            execute_pipeline(pipe, object())


class TestExcursionSweep:
    def test_sweep_shares_factorizations_and_matches_singles(self):
        sigma, mean = _field(20)
        cache = FactorCache(max_entries=8)
        sweep = excursion_threshold_sweep(sigma, mean, [0.0, 0.4],
                                          n_samples=120, rng=0, cache=cache)
        assert cache.factorize_count == 2  # one per excursion sign, not per threshold
        for threshold, analysis in zip((0.0, 0.4), sweep):
            alone = excursion_analysis(sigma, mean, threshold,
                                       n_samples=120, rng=0)
            assert np.array_equal(analysis.positive.confidence_function,
                                  alone.positive.confidence_function)
            assert np.array_equal(analysis.negative.confidence_function,
                                  alone.negative.confidence_function)
            assert analysis.summary() == alone.summary()


class TestSimulation:
    def test_simulate_pipeline_deterministic(self, sigma8):
        pipe = QueryPipeline(name="simulated")
        pipe.add_sigma("s", sigma8)
        pipe.add_threshold_sweep("sweep", [0.0, 0.5], sigma="s",
                                 n_samples=100, rng=0)
        config = SolverConfig(method="dense")
        result_a, tasks_a = simulate_pipeline(pipe, config, ClusterSpec(n_nodes=2))
        result_b, tasks_b = simulate_pipeline(pipe, config, ClusterSpec(n_nodes=2))
        assert result_a.makespan == result_b.makespan > 0.0
        tags = [task.tag for task in tasks_a]
        assert tags.count("factorize") == 1
        assert "sweep" in tags and "reduce" in tags
        assert [t.name for t in tasks_a] == [t.name for t in tasks_b]
        # task costs are the plan's modelled seconds, unconverted
        dense = QueryPlanner().plan_pipeline(pipe, config).sigma_plans["s"].costs["dense"]
        assert tasks_a[0].cost == dense["factorization"]


class TestAdaptiveSchedule:
    def _plan(self, n_samples=100, target_error=None, max_samples=1000):
        return SimpleNamespace(n_samples=n_samples, target_error=target_error,
                               max_samples=max_samples)

    @staticmethod
    def _run_one(plan, errors):
        """The single-query adaptive loop: one box swept at
        ``plan.n_samples``, then escalated by :func:`escalate_batch` — the
        batch-of-one path :meth:`repro.solver.Model.query` executes.
        Returns ``(result, rounds, samples_used, sweep sizes)``."""
        errors = iter(errors)
        calls = [plan.n_samples]
        results = [SimpleNamespace(error=next(errors))]
        rounds, used = [1], [plan.n_samples]

        def evaluate(indices, n_next):
            assert indices == [0]
            calls.append(n_next)
            return [SimpleNamespace(error=next(errors))]

        if plan.target_error is not None:
            escalate_batch(evaluate, plan, results, rounds, used)
        return results[0], rounds[0], used[0], calls

    def test_run_adaptive_single_round_without_target(self):
        result, rounds, used, calls = self._run_one(self._plan(), [0.5])
        assert calls == [100] and rounds == 1 and used == 100
        assert result.error == 0.5

    def test_run_adaptive_escalates_until_met(self):
        plan = self._plan(target_error=1e-3, max_samples=10**7)
        result, rounds, used, calls = self._run_one(plan, [4e-2, 1e-4])
        assert rounds == 2 and result.error <= plan.target_error
        assert calls[1] > calls[0]
        assert used == sum(calls)
        assert result.error == 1e-4

    def test_run_adaptive_flags_budget_exhaustion(self):
        plan = self._plan(n_samples=100, target_error=1e-6, max_samples=200)
        # never meets the target: the loop stops once the budget admits no
        # further growth, leaving the target unmet (``target_met=False``)
        result, rounds, used, calls = self._run_one(plan, [1.0] * 10)
        assert result.error > plan.target_error
        assert rounds >= 1 and calls[-1] == plan.max_samples

    def test_escalate_batch_groups_resweeps(self):
        plan = self._plan(n_samples=100, target_error=1e-3, max_samples=10**7)
        results = [SimpleNamespace(error=4e-2), SimpleNamespace(error=1e-5),
                   SimpleNamespace(error=4e-2)]
        rounds = [1, 1, 1]
        used = [100, 100, 100]
        sweeps = []

        def evaluate(indices, n_next):
            sweeps.append((tuple(indices), n_next))
            return [SimpleNamespace(error=1e-5) for _ in indices]

        escalate_batch(evaluate, plan, results, rounds, used)
        # the two unmet boxes share one re-sweep; the met box is untouched
        assert len(sweeps) == 1 and sweeps[0][0] == (0, 2)
        assert rounds == [2, 1, 2] and used[1] == 100
        assert all(r.error == 1e-5 or r.error == 1e-5 for r in results)

    def test_escalate_batch_noop_when_met(self):
        plan = self._plan(n_samples=100, target_error=1e-3)
        results = [SimpleNamespace(error=1e-5)]
        rounds, used = [1], [100]
        escalate_batch(lambda idx, n: pytest.fail("should not re-sweep"),
                       plan, results, rounds, used)
        assert rounds == [1] and used == [100]


class TestCLI:
    def test_pipeline_explain_smoke(self, capsys):
        from repro.cli import main

        assert main(["pipeline", "explain", "--grid", "6",
                     "--thresholds", "2", "--samples", "200"]) == 0
        text = capsys.readouterr().out
        assert "pipeline" in text and "fused" in text.lower() or "stage" in text
