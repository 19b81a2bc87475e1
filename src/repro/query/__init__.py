"""Declarative queries and the cost-model planner.

The query layer decouples *what* a caller asks from *how* it runs:

* :class:`MVNQuery` — one frozen, validated box query (limits, mean,
  optional error target / sample budget / seed, arbitrary tag).  Every
  entry point (functional, :class:`repro.solver.Model`, batched, serving)
  normalizes its arguments into one of these, so validation happens once,
  uniformly, at the query boundary.
* :class:`QueryPlanner` / :class:`QueryPlan` — the deterministic cost model
  (seconds priced from :data:`PLANNER_RATES`) that resolves
  ``method="auto"`` to the cheaper concrete estimator, picks the kernel
  backend, and sets the adaptive-accuracy schedule a ``target_error``
  triggers.  :func:`plan_query` is the one-shot convenience (the CLI's
  ``repro plan``).
* :class:`QueryPipeline` / :class:`PipelinePlan` — multi-query DAGs with
  explicit shared-factorization and shared-sweep edges, costed whole by
  :meth:`QueryPlanner.plan_pipeline` and executed by
  :func:`execute_pipeline` on a solver session or serving broker (the CLI's
  ``repro pipeline``).

See ``docs/query.md`` for the spec -> plan -> execute lifecycle and
``docs/pipelines.md`` for the pipeline graph model.

>>> import numpy as np
>>> from repro.query import MVNQuery, plan_query
>>> from repro.solver import SolverConfig
>>> sigma = np.array([[1.0, 0.4], [0.4, 1.0]])
>>> query = MVNQuery([-np.inf, -np.inf], [0.5, 0.5], target_error=5e-3)
>>> plan = plan_query(sigma, SolverConfig(method="auto", n_samples=250), query)
>>> plan.method, plan.target_error, plan.max_samples
('dense', 0.005, 16000)
"""

from repro.query.spec import MVNQuery
from repro.query.planner import (
    DEFAULT_BUDGET_MULTIPLIER,
    PLANNER_RATES,
    PlannerRates,
    QueryPlan,
    QueryPlanner,
    next_sample_count,
    plan_query,
)
from repro.query.pipeline import (
    PipelineNode,
    PipelinePlan,
    PipelineStage,
    QueryPipeline,
    SigmaRef,
    build_pipeline_plan,
    escalate_batch,
)
from repro.query.executors import (
    PipelineResult,
    execute_pipeline,
    simulate_pipeline,
)

__all__ = [
    "MVNQuery",
    "QueryPlan",
    "QueryPlanner",
    "PlannerRates",
    "PLANNER_RATES",
    "plan_query",
    "next_sample_count",
    "DEFAULT_BUDGET_MULTIPLIER",
    "QueryPipeline",
    "PipelineNode",
    "PipelineStage",
    "PipelinePlan",
    "PipelineResult",
    "SigmaRef",
    "build_pipeline_plan",
    "execute_pipeline",
    "simulate_pipeline",
    "escalate_batch",
]
