"""Declarative multi-query pipelines: DAGs of queries compiled into stages.

PR 5 made *single* queries declarative (:class:`~repro.query.spec.MVNQuery`
plus :class:`~repro.query.planner.QueryPlanner`); the workloads the paper
actually reports — CRD prefix chains, excursion threshold sweeps, adaptive
``target_error`` escalation rounds — are DAGs of *dependent* queries that
historically ran as ad-hoc Python loops above the planner, so shared
factorizations and shared sweeps were cache coincidences instead of plan
edges.  This module makes the whole workload a first-class object:

* :class:`QueryPipeline` — a validated, frozen graph of named nodes:

  - ``query`` nodes (one :class:`MVNQuery` against a named covariance),
  - ``crd`` nodes (one confidence-region detection, optionally of the
    *negative* excursion set),
  - ``map`` / ``combine`` reduction nodes (pure Python post-processing),

  plus the two generators the paper's loops reduce to:
  :meth:`QueryPipeline.add_threshold_sweep`,
  :meth:`QueryPipeline.add_excursion_sweep` and
  :meth:`QueryPipeline.add_prefix_chain`.

* :func:`build_pipeline_plan` / :class:`PipelinePlan` — the whole-graph
  extension of the planner: one structure probe per covariance, method
  resolution hoisted to the graph level, and independent same-covariance
  query nodes fused into shared batched sweeps
  (:class:`PipelineStage` records the fusion).

* :func:`escalate_batch` — the adaptive ``target_error`` escalation
  schedule.  A single query is a batch of one, so single queries, batches
  and pipeline stages all follow literally the same loop (bit-identical
  escalation decisions across entry points).

The executors that run a compiled pipeline on a solver session, a serving
broker or the distributed simulator live in :mod:`repro.query.executors`;
see ``docs/pipelines.md`` for the narrative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.crd import prefix_boxes
from repro.query.planner import QueryPlan, QueryPlanner, next_sample_count
from repro.query.spec import MVNQuery
from repro.utils.validation import check_count, check_mean, check_square

__all__ = [
    "SigmaRef",
    "PipelineNode",
    "PipelineStage",
    "PipelinePlan",
    "QueryPipeline",
    "build_pipeline_plan",
    "escalate_batch",
]

#: node kinds a pipeline admits
NODE_KINDS = ("query", "crd", "map", "combine")

#: confidence-region strategies a ``crd`` node accepts (the same two
#: :func:`repro.core.crd.confidence_region` implements)
CRD_ALGORITHMS = ("prefix", "sequential")


@dataclass(frozen=True)
class SigmaRef:
    """A named covariance the pipeline's compute nodes run against."""

    name: str
    sigma: np.ndarray
    mean: Any = 0.0

    def __post_init__(self) -> None:
        sigma = check_square(self.sigma, f"sigma ref {self.name!r}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "mean", check_mean(self.mean, sigma.shape[0]))

    @property
    def n(self) -> int:
        """Dimension of the covariance."""
        return int(self.sigma.shape[0])


@dataclass(frozen=True)
class PipelineNode:
    """One named node of a :class:`QueryPipeline` (validated at add time).

    Exactly one of the kind-specific field groups is populated: ``query``
    for query nodes; ``threshold``/``negate``/``algorithm`` (and the
    sampling overrides) for crd nodes; ``fn`` + ``inputs`` for the
    reduction nodes.  ``inputs`` always lists the upstream node names the
    executor must resolve first.
    """

    name: str
    kind: str
    sigma: str | None = None
    query: MVNQuery | None = None
    threshold: float | None = None
    negate: bool = False
    algorithm: str = "prefix"
    n_samples: int | None = None
    rng: Any = None
    qmc: str | None = None
    nugget: float = 1e-8
    levels: tuple | None = None
    fn: Callable | None = None
    inputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class PipelineStage:
    """One executable step of the compiled graph.

    ``kind`` is ``"sweep"`` (query nodes against one covariance — fused
    into a single batched sweep when the stage holds more than one node),
    ``"crd"`` (one detection) or ``"python"`` (one map/combine node).
    """

    kind: str
    nodes: tuple[str, ...]
    sigma: str | None
    depth: int

    @property
    def fused(self) -> bool:
        """Whether this stage is a shared-sweep edge (>1 query per sweep)."""
        return self.kind == "sweep" and len(self.nodes) > 1


class QueryPipeline:
    """A validated DAG of MVN queries, detections and reductions.

    Build incrementally with the ``add_*`` methods — every addition is
    validated immediately (duplicate names, unknown covariance refs,
    unknown upstream nodes and malformed parameters raise ``ValueError``
    at the call site, exactly like :class:`MVNQuery` construction).
    Because a node may only reference nodes added *before* it, the graph
    is acyclic by construction and insertion order is a topological order.

    :meth:`freeze` seals the pipeline (any further mutation raises);
    executing or planning a pipeline freezes it implicitly, so a pipeline
    that ran once can never drift from what was planned.

    >>> import numpy as np
    >>> from repro.query import MVNQuery, QueryPipeline
    >>> pipe = QueryPipeline(name="demo")
    >>> pipe.add_sigma("field", np.eye(2) + 0.1)
    >>> pipe.add_query("tail", MVNQuery([0.0, 0.0], [np.inf, np.inf]), sigma="field")
    >>> pipe.add_map("prob", lambda r: r.probability, "tail")
    >>> [stage.kind for stage in pipe.compile()]
    ['sweep', 'python']
    """

    def __init__(self, name: str = "pipeline") -> None:
        self.name = str(name)
        self._sigmas: dict[str, SigmaRef] = {}
        self._nodes: dict[str, PipelineNode] = {}
        self._frozen = False
        self._stages: tuple[PipelineStage, ...] | None = None

    # -- introspection ---------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Whether the pipeline is sealed against further mutation."""
        return self._frozen

    @property
    def node_names(self) -> tuple[str, ...]:
        """All node names, in insertion (= topological) order."""
        return tuple(self._nodes)

    @property
    def sigma_names(self) -> tuple[str, ...]:
        """All registered covariance reference names."""
        return tuple(self._sigmas)

    def node(self, name: str) -> PipelineNode:
        """Look up one node by name (``KeyError`` if absent)."""
        return self._nodes[name]

    def sigma_ref(self, name: str) -> SigmaRef:
        """Look up one covariance reference by name (``KeyError`` if absent)."""
        return self._sigmas[name]

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "frozen" if self._frozen else "building"
        return (
            f"QueryPipeline(name={self.name!r}, nodes={len(self._nodes)}, "
            f"sigmas={len(self._sigmas)}, {state})"
        )

    # -- construction ----------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._frozen:
            raise ValueError(
                f"pipeline {self.name!r} is frozen; build a new QueryPipeline "
                "instead of mutating one that was already compiled or executed"
            )

    def _check_name(self, name: str) -> str:
        if not isinstance(name, str) or not name:
            raise ValueError(f"node name must be a non-empty string, got {name!r}")
        if name in self._nodes:
            raise ValueError(f"duplicate node name {name!r}")
        return name

    def _check_sigma(self, sigma: str) -> SigmaRef:
        if sigma not in self._sigmas:
            raise ValueError(
                f"unknown sigma ref {sigma!r}; register it first with "
                f"add_sigma (known: {sorted(self._sigmas)})"
            )
        return self._sigmas[sigma]

    def _check_inputs(self, inputs, *, what: str = "inputs") -> tuple[str, ...]:
        names = tuple(inputs)
        for name in names:
            if name not in self._nodes:
                raise ValueError(
                    f"unknown upstream node {name!r} in {what}; nodes must be "
                    "added before anything that depends on them"
                )
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate upstream node in {what}: {names}")
        return names

    def add_sigma(self, name: str, sigma, mean=0.0) -> None:
        """Register a named covariance (with its field mean) for query/crd nodes."""
        self._check_mutable()
        if not isinstance(name, str) or not name:
            raise ValueError(f"sigma ref name must be a non-empty string, got {name!r}")
        if name in self._sigmas:
            raise ValueError(f"duplicate sigma ref {name!r}")
        self._sigmas[name] = SigmaRef(name=name, sigma=sigma, mean=mean)

    def add_query(self, name: str, query: MVNQuery, *, sigma: str,
                  after: tuple[str, ...] | list[str] = ()) -> str:
        """Add one query node (an :class:`MVNQuery` against a sigma ref).

        ``after`` adds explicit ordering edges to upstream nodes (useful
        when a query must observe a prior stage's side effects); data
        dependencies are carried by map/combine nodes instead.
        """
        self._check_mutable()
        name = self._check_name(name)
        if not isinstance(query, MVNQuery):
            raise ValueError(f"query node {name!r} needs an MVNQuery, got {type(query).__name__}")
        ref = self._check_sigma(sigma)
        if query.n != ref.n:
            raise ValueError(
                f"query node {name!r} has dimension {query.n} but sigma ref "
                f"{sigma!r} has dimension {ref.n}"
            )
        inputs = self._check_inputs(after, what=f"after= of node {name!r}")
        self._nodes[name] = PipelineNode(name=name, kind="query", sigma=sigma,
                                         query=query, inputs=inputs)
        return name

    def add_crd(self, name: str, *, sigma: str, threshold: float,
                negate: bool = False, algorithm: str = "prefix",
                n_samples: int | None = None, rng=None, qmc: str | None = None,
                nugget: float = 1e-8, levels=None,
                after: tuple[str, ...] | list[str] = ()) -> str:
        """Add one confidence-region detection node (Algorithm 1).

        ``negate=True`` detects the *negative* excursion set via the
        ``{X < u} = {-X > -u}`` identity (the executor negates the mean and
        threshold and stamps ``set_type`` on the result, exactly like
        :func:`repro.excursion.negative_confidence_region`).
        """
        self._check_mutable()
        name = self._check_name(name)
        self._check_sigma(sigma)
        threshold = float(threshold)
        if not np.isfinite(threshold):
            raise ValueError(f"crd node {name!r} needs a finite threshold, got {threshold!r}")
        if algorithm not in CRD_ALGORITHMS:
            raise ValueError(
                f"crd node {name!r}: unknown algorithm {algorithm!r}; "
                f"use one of {CRD_ALGORITHMS}"
            )
        if n_samples is not None:
            n_samples = check_count(n_samples, "n_samples")
        if not (float(nugget) >= 0.0):
            raise ValueError(f"nugget must be >= 0, got {nugget!r}")
        if levels is not None:
            levels = tuple(int(level) for level in np.asarray(levels, dtype=int).ravel())
        inputs = self._check_inputs(after, what=f"after= of node {name!r}")
        self._nodes[name] = PipelineNode(
            name=name, kind="crd", sigma=sigma, threshold=threshold,
            negate=bool(negate), algorithm=algorithm, n_samples=n_samples,
            rng=rng, qmc=qmc, nugget=float(nugget), levels=levels, inputs=inputs,
        )
        return name

    def add_map(self, name: str, fn: Callable, source: str) -> str:
        """Add a map node: ``fn`` applied to one upstream node's result."""
        self._check_mutable()
        name = self._check_name(name)
        if not callable(fn):
            raise ValueError(f"map node {name!r} needs a callable, got {type(fn).__name__}")
        inputs = self._check_inputs((source,), what=f"source of node {name!r}")
        self._nodes[name] = PipelineNode(name=name, kind="map", fn=fn, inputs=inputs)
        return name

    def add_combine(self, name: str, fn: Callable, sources) -> str:
        """Add a combine node: ``fn(*results)`` over several upstream nodes."""
        self._check_mutable()
        name = self._check_name(name)
        if not callable(fn):
            raise ValueError(f"combine node {name!r} needs a callable, got {type(fn).__name__}")
        sources = tuple(sources)
        if not sources:
            raise ValueError(f"combine node {name!r} needs at least one source")
        inputs = self._check_inputs(sources, what=f"sources of node {name!r}")
        self._nodes[name] = PipelineNode(name=name, kind="combine", fn=fn, inputs=inputs)
        return name

    # -- generators ------------------------------------------------------------------
    def add_threshold_sweep(self, name: str, thresholds, *, sigma: str,
                            n_samples: int | None = None, rng=None,
                            qmc: str | None = None,
                            target_error: float | None = None,
                            max_samples: int | None = None) -> str:
        """Joint-exceedance threshold sweep: one query ``P(X > u)`` per ``u``.

        Expands into one query node per threshold — all against the same
        sigma ref with identical sampling settings, so the compiler fuses
        them into a single shared batched sweep — plus a combine node
        (returned) that gathers ``{"thresholds", "probabilities", "errors"}``.
        """
        ref = self._check_sigma(sigma)
        thresholds = np.asarray(thresholds, dtype=np.float64).ravel()
        if thresholds.size == 0:
            raise ValueError("add_threshold_sweep needs at least one threshold")
        if not np.all(np.isfinite(thresholds)):
            raise ValueError("thresholds must be finite")
        upper = np.full(ref.n, np.inf)
        members = []
        for idx, u in enumerate(thresholds):
            query = MVNQuery(
                np.full(ref.n, float(u)), upper, n_samples=n_samples, rng=rng,
                qmc=qmc, target_error=target_error, max_samples=max_samples,
                tag=float(u),
            )
            members.append(self.add_query(f"{name}[{idx}]", query, sigma=sigma))

        def gather(*results):
            return {
                "thresholds": thresholds.copy(),
                "probabilities": np.array([r.probability for r in results]),
                "errors": np.array([r.error for r in results]),
            }

        return self.add_combine(name, gather, tuple(members))

    def add_excursion_sweep(self, name: str, thresholds, *, sigma: str,
                            alpha: float = 0.05, algorithm: str = "prefix",
                            n_samples: int | None = None, rng=None,
                            qmc: str | None = None, nugget: float = 1e-8,
                            levels=None) -> str:
        """Excursion threshold sweep: a positive + negative detection per ``u``.

        Expands into two crd nodes per threshold (the first in-tree use of
        the two-node excursion pipeline) and per-threshold combine nodes
        building :class:`repro.excursion.ExcursionAnalysis` objects; the
        returned combine node gathers them into a list ordered like
        ``thresholds``.  All detections share the executing solver's factor
        cache — a constant-variance field factorizes once per excursion
        sign across the whole sweep.
        """
        self._check_sigma(sigma)
        thresholds = np.asarray(thresholds, dtype=np.float64).ravel()
        if thresholds.size == 0:
            raise ValueError("add_excursion_sweep needs at least one threshold")
        if not np.all(np.isfinite(thresholds)):
            raise ValueError("thresholds must be finite")
        alpha = float(alpha)

        def make_analysis(u: float):
            def build(positive, negative):
                # imported late: repro.excursion builds on the query layer
                from repro.excursion.sets import ExcursionAnalysis

                return ExcursionAnalysis(positive=positive, negative=negative,
                                         alpha=alpha, threshold=float(u))
            return build

        members = []
        for idx, u in enumerate(thresholds):
            positive = self.add_crd(
                f"{name}[{idx}].positive", sigma=sigma, threshold=float(u),
                algorithm=algorithm, n_samples=n_samples, rng=rng, qmc=qmc,
                nugget=nugget, levels=levels,
            )
            negative = self.add_crd(
                f"{name}[{idx}].negative", sigma=sigma, threshold=float(u),
                negate=True, algorithm=algorithm, n_samples=n_samples, rng=rng,
                qmc=qmc, nugget=nugget, levels=levels,
            )
            members.append(self.add_combine(
                f"{name}[{idx}]", make_analysis(float(u)), (positive, negative)
            ))
        return self.add_combine(name, lambda *analyses: list(analyses), tuple(members))

    def add_prefix_chain(self, name: str, a, *, sigma: str, sizes=None,
                         n_samples: int | None = None, rng=None,
                         qmc: str | None = None) -> str:
        """CRD prefix chain: one box query per prefix size of the limits ``a``.

        The boxes are :func:`repro.core.crd.prefix_boxes` — the
        paper-faithful sequential form of Algorithm 1 step 4, the same boxes
        the CRD sequential path sweeps.  All boxes share one sigma ref and
        identical settings, so they compile into a single fused sweep; the
        returned combine node gathers the ``(probabilities, errors)`` arrays
        ordered like ``sizes``.
        """
        ref = self._check_sigma(sigma)
        a = np.asarray(a, dtype=np.float64).ravel()
        if ref.n != a.shape[0]:
            raise ValueError(
                f"prefix-chain limits have length {a.shape[0]} but sigma ref "
                f"{sigma!r} has dimension {ref.n}"
            )
        sizes, boxes = prefix_boxes(a, sizes)
        members = []
        for size, (lower, upper) in zip(sizes, boxes):
            query = MVNQuery(lower, upper, n_samples=n_samples, rng=rng, qmc=qmc,
                             tag=int(size))
            members.append(self.add_query(f"{name}[{int(size)}]", query, sigma=sigma))

        def gather(*results):
            return (
                np.array([r.probability for r in results]),
                np.array([r.error for r in results]),
            )

        return self.add_combine(name, gather, tuple(members))

    # -- compilation -----------------------------------------------------------------
    def freeze(self) -> "QueryPipeline":
        """Seal the pipeline: validate the graph, reject any later mutation."""
        if self._frozen:
            return self
        if not self._nodes:
            raise ValueError(f"pipeline {self.name!r} has no nodes")
        self._frozen = True
        return self

    def _depths(self) -> dict[str, int]:
        depth: dict[str, int] = {}
        for name, node in self._nodes.items():
            depth[name] = 1 + max((depth[src] for src in node.inputs), default=-1)
        return depth

    @staticmethod
    def _fuse_key(node: PipelineNode, depth: int):
        """Fusion key of a query node: equal keys share one batched sweep.

        Only integer seeds (or ``None``) fuse — a generator object drawn by
        several independent queries cannot be replayed by a single batched
        sweep — and only queries deferring to the ref's mean fuse, because
        a batch resolves one mean layout for every box.
        """
        query = node.query
        rng = query.rng
        if rng is not None and not isinstance(rng, (int, np.integer)):
            return None  # unfusable: runs as its own single-query stage
        if query.mean is not None:
            return None
        return (depth, node.sigma, query.n_samples,
                None if rng is None else int(rng), query.qmc,
                query.target_error, query.max_samples)

    def compile(self) -> tuple[PipelineStage, ...]:
        """Freeze and compile the graph into an ordered stage list.

        Query nodes with equal fusion keys (same covariance, same depth,
        same sampling settings) collapse into one fused ``"sweep"`` stage —
        the explicit shared-sweep edges; every stage against a given sigma
        ref shares that ref's factorization (the shared-factorization
        edges).  Stages are ordered by depth, then by first member's
        insertion index, so upstream results always exist when a stage runs.
        """
        self.freeze()
        if self._stages is not None:
            return self._stages
        depth = self._depths()
        order = {name: idx for idx, name in enumerate(self._nodes)}
        groups: dict[tuple, list[str]] = {}
        staged: list[tuple[tuple[int, int], PipelineStage]] = []
        for name, node in self._nodes.items():
            if node.kind == "query":
                key = self._fuse_key(node, depth[name])
                if key is not None:
                    groups.setdefault(key, []).append(name)
                    continue
                stage = PipelineStage("sweep", (name,), node.sigma, depth[name])
            elif node.kind == "crd":
                stage = PipelineStage("crd", (name,), node.sigma, depth[name])
            else:
                stage = PipelineStage("python", (name,), None, depth[name])
            staged.append(((depth[name], order[name]), stage))
        for key, names in groups.items():
            stage = PipelineStage("sweep", tuple(names), key[1], key[0])
            staged.append(((key[0], min(order[nm] for nm in names)), stage))
        staged.sort(key=lambda item: item[0])
        self._stages = tuple(stage for _key, stage in staged)
        return self._stages

    def edges(self) -> dict:
        """The explicit sharing edges of the compiled graph.

        ``shared_factorization`` maps each sigma ref to the compute nodes
        running against it (an edge whenever more than one); ``shared_sweep``
        lists the fused stages' member nodes.
        """
        stages = self.compile()
        factorization: dict[str, list[str]] = {}
        for node in self._nodes.values():
            if node.sigma is not None:
                factorization.setdefault(node.sigma, []).append(node.name)
        return {
            "shared_factorization": {ref: tuple(names) for ref, names in factorization.items()},
            "shared_sweep": [stage.nodes for stage in stages if stage.fused],
        }

    def explain(self) -> str:
        """Human-readable structural rendering (``repro pipeline explain``)."""
        stages = self.compile()
        edges = self.edges()
        lines = [f"pipeline {self.name!r}: {len(self._nodes)} nodes, "
                 f"{len(self._sigmas)} covariance(s), {len(stages)} stage(s)"]
        for ref in self._sigmas.values():
            shared = edges["shared_factorization"].get(ref.name, ())
            lines.append(f"  sigma {ref.name!r} (n={ref.n}): {len(shared)} node(s) "
                         "share one factorization")
        for idx, stage in enumerate(stages):
            label = {"sweep": "sweep", "crd": "detect", "python": "reduce"}[stage.kind]
            fused = f" [fused x{len(stage.nodes)}]" if stage.fused else ""
            target = f" @ {stage.sigma!r}" if stage.sigma is not None else ""
            names = ", ".join(stage.nodes[:4]) + (", ..." if len(stage.nodes) > 4 else "")
            lines.append(f"  stage {idx}: {label}{target}{fused}: {names}")
        return "\n".join(lines)


@dataclass
class PipelinePlan:
    """The planner's whole-graph decision for one pipeline.

    One :class:`~repro.query.planner.QueryPlan` per covariance (the method
    resolution is hoisted to the graph level: every stage against a ref
    executes that ref's plan), one structure probe per covariance at most,
    the compiled stage list, and the aggregate modelled cost in seconds —
    sweeps pay per stage member, factorizations once per ref.
    """

    pipeline: str
    stages: tuple[PipelineStage, ...]
    sigma_plans: dict[str, QueryPlan]
    edges: dict
    costs: dict

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def fused_queries(self) -> int:
        """Query nodes executing inside a shared (fused) sweep."""
        return sum(len(stage.nodes) for stage in self.stages if stage.fused)

    def describe(self) -> str:
        """Human-readable rendering (the ``repro pipeline explain`` output)."""
        lines = [f"pipeline         : {self.pipeline}",
                 f"stages           : {self.n_stages}",
                 f"fused queries    : {self.fused_queries}"]
        for ref, plan in self.sigma_plans.items():
            probe = " (structure probe ran once)" if plan.probe else ""
            lines.append(f"sigma {ref!r}: method={plan.method} "
                         f"backend={plan.backend or '-'}{probe}")
            lines.append(f"  reason: {plan.reason}")
        if self.costs:
            lines.append("modelled cost (seconds):")
            for key in sorted(self.costs):
                lines.append(f"  {key:<14} {self.costs[key]:.3g}")
        return "\n".join(lines)


def build_pipeline_plan(pipeline: QueryPipeline, config, planner: QueryPlanner | None = None) -> PipelinePlan:
    """Cost a pipeline whole: one probe and one method resolution per Sigma.

    This is what :meth:`repro.query.QueryPlanner.plan_pipeline` delegates
    to.  Per covariance reference the planner aggregates the one-sidedness
    of that ref's query boxes and resolves the method/backend once, running
    at most one structure probe (only when the rank can change the answer).
    Executing the pipeline binds one :class:`repro.solver.Model` per (ref,
    excursion sign), and each model plans once, so it probes at most once.
    """
    planner = QueryPlanner() if planner is None else planner
    stages = pipeline.compile()
    sigma_plans: dict[str, QueryPlan] = {}
    nodes_by_ref: dict[str, list[PipelineNode]] = {}
    for name in pipeline.node_names:
        node = pipeline.node(name)
        if node.sigma is not None:
            nodes_by_ref.setdefault(node.sigma, []).append(node)

    for ref_name, nodes in nodes_by_ref.items():
        ref = pipeline.sigma_ref(ref_name)
        query_nodes = [node for node in nodes if node.kind == "query"]
        if query_nodes:
            one_sided = float(np.mean([node.query.one_sided_fraction for node in query_nodes]))
            n_samples = next((node.query.n_samples for node in query_nodes
                              if node.query.n_samples is not None), None)
            target = next((node.query.target_error for node in query_nodes
                           if node.query.target_error is not None), None)
        else:
            one_sided = 0.5  # crd prefix boxes: finite lower, infinite upper
            n_samples = next((node.n_samples for node in nodes
                              if node.n_samples is not None), None)
            target = None
        sigma_plans[ref_name] = planner.plan(
            ref.sigma, config, n_samples=n_samples,
            one_sided_fraction=one_sided, target_error=target,
        )

    costs: dict[str, float] = {}
    total = 0.0
    for ref_name, plan in sigma_plans.items():
        if not plan.costs:
            continue
        parts = plan.costs[plan.method]
        factor_cost = parts.get("factorization", 0.0) + parts.get("compression", 0.0)
        sweep_unit = parts.get("kernel", 0.0) + parts.get("propagation", 0.0) + parts.get("tasks", 0.0)
        n_sweeps = sum(len(stage.nodes) for stage in stages
                       if stage.sigma == ref_name and stage.kind in ("sweep", "crd"))
        ref_total = factor_cost + sweep_unit * n_sweeps
        costs[f"sigma:{ref_name}"] = ref_total
        total += ref_total
    if costs:
        costs["total"] = total

    return PipelinePlan(
        pipeline=pipeline.name, stages=stages, sigma_plans=sigma_plans,
        edges=pipeline.edges(), costs=costs,
    )


# -- the adaptive target_error schedule (shared by every entry point) ----------------

def escalate_batch(evaluate: Callable[[list[int], int], list], plan: QueryPlan,
                   results: list, rounds: list, samples_used: list) -> None:
    """Per-box adaptive refinement of a batched sweep (in place).

    Each unmet box follows the escalation schedule of
    :func:`repro.query.next_sample_count`; boxes landing on the same next
    sample count share one re-sweep (``evaluate(indices, n_next)`` re-runs
    just those boxes).  This is the loop behind every
    :class:`repro.solver.Model` query — single boxes, batches and fused
    pipeline sweep stages alike: one implementation, bit-identical
    decisions.
    """
    box_samples = [plan.n_samples] * len(results)
    while True:
        escalations: dict[int, list[int]] = {}
        for idx, result in enumerate(results):
            escalated = next_sample_count(
                box_samples[idx], result.error, plan.target_error, plan.max_samples
            )
            if escalated is not None:
                escalations.setdefault(escalated, []).append(idx)
        if not escalations:
            return
        for n_next, indices in sorted(escalations.items()):
            for idx, re_result in zip(indices, evaluate(indices, n_next)):
                results[idx] = re_result
                box_samples[idx] = n_next
                rounds[idx] += 1
                samples_used[idx] += n_next
