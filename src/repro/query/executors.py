"""Pipeline executors: run one compiled :class:`QueryPipeline` anywhere.

The pipeline is the runtime-agnostic topology; this module converts it on
demand per runner, so the *same* frozen graph executes

* on a solver session (:func:`execute_pipeline` with an
  :class:`repro.solver.MVNSolver`): models per covariance reference, the
  planner's hoisted structure probes seeded into each model, fused stages
  dispatched as one :meth:`~repro.solver.Model.probability_batch` sweep
  (the PR 8 fused schedule), crd nodes as
  :meth:`~repro.solver.Model.confidence_region` detections sharing the
  session's factor cache;
* on a serving broker (:func:`execute_pipeline` with a
  :class:`repro.serve.QueryBroker`): whole stages submitted as micro-batch
  windows with a pipeline-aware batch key (``batch_tag=(pipeline, stage)``),
  so one stage's queries coalesce on their owning shard;
* against an already-factorized problem (:func:`execute_factor_bound`):
  the CRD sequential path, where the standardized correlation matrix is
  factorized by the caller and every fused stage is exactly one
  :func:`repro.core.pmvn.pmvn_integrate_batch` call — bit-identical to the
  historical loop;
* on the distributed simulator (:func:`simulate_pipeline`): the compiled
  stages become :class:`repro.distributed.SimTask` graphs (factorizations
  placed by fingerprint routing, sweeps depending on them) run through the
  *unchanged* :class:`repro.distributed.ClusterSimulator`.

Results come back as a :class:`PipelineResult` mapping node names to their
values (query nodes -> :class:`repro.mvn.result.MVNResult`, crd nodes ->
:class:`repro.core.crd.ConfidenceRegionResult`, reduction nodes -> whatever
their callable returned).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.pmvn import PMVNOptions, pmvn_integrate_batch
from repro.query.pipeline import PipelinePlan, QueryPipeline
from repro.query.planner import QueryPlanner

__all__ = [
    "PipelineResult",
    "execute_pipeline",
    "execute_factor_bound",
    "simulate_pipeline",
]


@dataclass
class PipelineResult:
    """Results of one pipeline execution, addressable by node name."""

    results: dict
    plan: PipelinePlan | None
    details: dict = field(default_factory=dict)

    def __getitem__(self, name: str):
        return self.results[name]

    def __contains__(self, name: str) -> bool:
        return name in self.results

    def __len__(self) -> int:
        return len(self.results)


def execute_pipeline(pipeline: QueryPipeline, executor) -> PipelineResult:
    """Run a pipeline on a solver session or a serving broker.

    The executor type selects the conversion; the compiled stages — and
    therefore the sweep fusion, the stage order and (for integer seeds) the
    numerical results — are the same either way.
    """
    # imported late: the solver and serve layers build on the query layer
    from repro.solver.solver import MVNSolver

    if isinstance(executor, MVNSolver):
        return _execute_on_solver(pipeline, executor)
    from repro.serve.broker import QueryBroker

    if isinstance(executor, QueryBroker):
        return _execute_on_broker(pipeline, executor)
    raise TypeError(
        f"execute_pipeline needs an MVNSolver or QueryBroker, got {type(executor).__name__}"
    )


def _run_python_stage(pipeline: QueryPipeline, name: str, results: dict) -> None:
    node = pipeline.node(name)
    results[name] = node.fn(*(results[src] for src in node.inputs))


def _negated_mean(mean):
    if mean is None or np.isscalar(mean):
        return -float(mean if mean is not None else 0.0)
    return -np.asarray(mean, dtype=np.float64)


def _execute_on_solver(pipeline: QueryPipeline, solver) -> PipelineResult:
    plan = solver.planner.plan_pipeline(pipeline, solver.config)
    models: dict = {}

    def model_for(ref_name: str, negate: bool = False):
        key = (ref_name, negate)
        if key not in models:
            ref = pipeline.sigma_ref(ref_name)
            if ref.sigma is None:
                raise ValueError(
                    f"sigma ref {ref_name!r} is factor-bound (no covariance "
                    "array); a solver executor needs the matrix — use "
                    "execute_factor_bound with the pre-built factor instead"
                )
            mean = _negated_mean(ref.mean) if negate else ref.mean
            model = solver.model(ref.sigma, mean=mean)
            # the graph-level structure probe: every model of this ref plans
            # from the one probe the pipeline plan already paid for
            if plan.probes.get(ref_name) is not None:
                model._probe = plan.probes[ref_name]
            models[key] = model
        return models[key]

    results: dict = {}
    for stage in plan.stages:
        if stage.kind == "python":
            _run_python_stage(pipeline, stage.nodes[0], results)
        elif stage.kind == "crd":
            node = pipeline.node(stage.nodes[0])
            model = model_for(stage.sigma, node.negate)
            threshold = -node.threshold if node.negate else node.threshold
            result = model.confidence_region(
                threshold, algorithm=node.algorithm, n_samples=node.n_samples,
                rng=node.rng, qmc=node.qmc, nugget=node.nugget,
                levels=None if node.levels is None else np.asarray(node.levels),
            )
            if node.negate:
                # report in the original field's coordinates, exactly like
                # repro.excursion.negative_confidence_region
                result.threshold = float(node.threshold)
                result.details["set_type"] = "negative"
            results[node.name] = result
        elif len(stage.nodes) == 1:
            node = pipeline.node(stage.nodes[0])
            results[node.name] = model_for(stage.sigma).query(node.query)
        else:
            nodes = [pipeline.node(name) for name in stage.nodes]
            shared = nodes[0].query  # equal fuse key: shared settings
            batch = model_for(stage.sigma).probability_batch(
                [(node.query.a, node.query.b) for node in nodes],
                n_samples=shared.n_samples, rng=shared.rng, qmc=shared.qmc,
                target_error=shared.target_error, max_samples=shared.max_samples,
            )
            for node, result in zip(nodes, batch):
                results[node.name] = result
    return PipelineResult(results=results, plan=plan,
                          details={"executor": "solver", "models": len(models)})


def _execute_on_broker(pipeline: QueryPipeline, broker) -> PipelineResult:
    stages = pipeline.compile()
    results: dict = {}
    for stage_idx, stage in enumerate(stages):
        if stage.kind == "python":
            _run_python_stage(pipeline, stage.nodes[0], results)
            continue
        if stage.kind == "crd":
            raise ValueError(
                "confidence-region nodes cannot run on a QueryBroker (shards "
                "answer box queries only); execute this pipeline on an "
                "MVNSolver instead"
            )
        ref = pipeline.sigma_ref(stage.sigma)
        if ref.sigma is None:
            raise ValueError(
                f"sigma ref {stage.sigma!r} is factor-bound; a broker "
                "executor needs the covariance array"
            )
        futures = []
        for name in stage.nodes:
            query = pipeline.node(name).query
            if query.mean is None and not (np.isscalar(ref.mean) and float(ref.mean) == 0.0):
                query = replace(query, mean=ref.mean)
            # one batch key per (pipeline, stage): the whole stage micro-batches
            # together on its owning shard
            futures.append(broker.submit(query, ref.sigma,
                                         batch_tag=(pipeline.name, stage_idx)))
        for name, future in zip(stage.nodes, futures):
            results[name] = future.result()
    return PipelineResult(results=results, plan=None, details={"executor": "broker"})


def execute_factor_bound(pipeline: QueryPipeline, factor, options: PMVNOptions,
                         *, runtime=None) -> PipelineResult:
    """Run a query-only pipeline against one pre-built Cholesky factor.

    Every fused stage is exactly one
    :func:`repro.core.pmvn.pmvn_integrate_batch` call with the given
    ``options`` (per-query sampling overrides are ignored — the factor and
    options *are* the execution context), so the CRD sequential path built
    on this is bit-identical to its historical hand-written loop.
    """
    stages = pipeline.compile()
    results: dict = {}
    for stage in stages:
        if stage.kind == "python":
            _run_python_stage(pipeline, stage.nodes[0], results)
            continue
        if stage.kind != "sweep":
            raise ValueError(
                "factor-bound execution supports query and reduction nodes "
                f"only, not {stage.kind!r}"
            )
        nodes = [pipeline.node(name) for name in stage.nodes]
        boxes = [(node.query.a, node.query.b) for node in nodes]
        batch = pmvn_integrate_batch(boxes, factor, options, runtime=runtime)
        for node, result in zip(nodes, batch):
            results[node.name] = result
    return PipelineResult(results=results, plan=None, details={"executor": "factor"})


def simulate_pipeline(pipeline: QueryPipeline, config, cluster, *,
                      planner: QueryPlanner | None = None,
                      cores_per_node: int | None = None,
                      seconds_per_unit: float = 1e-9):
    """Replay a pipeline's stage graph on the distributed simulator.

    Converts the compiled stages into :class:`repro.distributed.SimTask`
    objects — one factorization task per covariance reference, placed on
    the shard its fingerprint routes to; one task per stage, costed from
    the pipeline plan's modelled breakdown and depending on its
    factorization and upstream stages — and runs them through the
    *unchanged* :class:`repro.distributed.ClusterSimulator`.  Returns
    ``(SimulationResult, tasks)``.

    ``seconds_per_unit`` converts the planner's relative flop-equivalent
    units into simulated seconds; the default roughly matches one flop per
    nanosecond, which is only meant to produce plausible magnitudes — the
    *shape* of the schedule (placement, dependencies, overlap) is the
    object of study, exactly as in ``docs/performance.md``.
    """
    from repro.batch.cache import sigma_fingerprint
    from repro.distributed.simulator import ClusterSimulator, SimTask
    from repro.serve.pool import shard_for_fingerprint

    planner = QueryPlanner() if planner is None else planner
    plan = planner.plan_pipeline(pipeline, config)

    tasks: list[SimTask] = []
    factor_task: dict[str, int] = {}
    home: dict[str, int] = {}
    for ref_name, sigma_plan in plan.sigma_plans.items():
        ref = pipeline.sigma_ref(ref_name)
        if sigma_plan is None:
            raise ValueError(
                f"cannot simulate sigma ref {ref_name!r}: neither a "
                "covariance array nor a dimension was registered"
            )
        if ref.sigma is not None:
            node_id = shard_for_fingerprint(sigma_fingerprint(ref.sigma), cluster.n_nodes)
        else:
            node_id = zlib.crc32(ref_name.encode()) % cluster.n_nodes
        home[ref_name] = node_id
        parts = sigma_plan.costs.get(sigma_plan.method)
        if parts:
            cost = (parts.get("factorization", 0.0) + parts.get("compression", 0.0))
            factor_task[ref_name] = len(tasks)
            tasks.append(SimTask(
                name=f"factorize:{ref_name}", cost=cost * seconds_per_unit,
                node=node_id, deps=[], output_bytes=float(ref.n or 0) ** 2 * 8.0,
                tag="factorize",
            ))

    node_stage: dict[str, int] = {}
    for stage_idx, stage in enumerate(plan.stages):
        deps = set()
        for name in stage.nodes:
            for src in pipeline.node(name).inputs:
                deps.add(node_stage[src])
        if stage.kind in ("sweep", "crd"):
            sigma_plan = plan.sigma_plans[stage.sigma]
            parts = sigma_plan.costs.get(sigma_plan.method, {})
            sweep_unit = (parts.get("kernel", 0.0) + parts.get("propagation", 0.0)
                          + parts.get("tasks", 0.0))
            if sweep_unit <= 0.0:
                ref = pipeline.sigma_ref(stage.sigma)
                sweep_unit = float(ref.n or 1) * sigma_plan.n_samples
            if stage.sigma in factor_task:
                deps.add(factor_task[stage.sigma])
            tasks.append(SimTask(
                name=f"stage[{stage_idx}]:{stage.kind}x{len(stage.nodes)}",
                cost=sweep_unit * len(stage.nodes) * seconds_per_unit,
                node=home[stage.sigma], deps=sorted(deps),
                output_bytes=16.0 * len(stage.nodes),
                tag=stage.kind,
            ))
        else:
            # reductions are pure-Python gathers: negligible compute, they
            # exist in the schedule for their dependency (and traffic) edges
            tasks.append(SimTask(
                name=f"stage[{stage_idx}]:{stage.nodes[0]}",
                cost=1e3 * seconds_per_unit, node=0, deps=sorted(deps),
                output_bytes=8.0, tag="reduce",
            ))
        for name in stage.nodes:
            node_stage[name] = len(tasks) - 1

    simulator = ClusterSimulator(cluster, cores_per_node=cores_per_node)
    return simulator.run(tasks), tasks
