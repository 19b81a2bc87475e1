"""Session-oriented solver objects: the canonical evaluation path.

The functional API (:func:`repro.core.api.mvn_probability` and friends)
rebuilds a runtime and refactorizes the covariance on every call.  A service
loop answering many queries wants the opposite: configure once, factorize
once, reuse the worker pool.  That is what this module provides:

* :class:`~repro.solver.config.SolverConfig` — the evaluation knobs,
  validated once;
* :class:`MVNSolver` — owns one :class:`~repro.runtime.Runtime` and one
  :class:`~repro.batch.FactorCache` for its lifetime (a context manager:
  closing the solver closes the runtime);
* :class:`Model` — a covariance (and mean) bound to a lazily pre-factorized
  representation: every ``probability`` / ``probability_batch`` query runs
  against the shared factor, and ``confidence_region`` detections cache
  the factor of their standardized correlation matrix alongside it.

The functional API is now a thin wrapper that builds a transient solver per
call, so both entry points produce bit-identical results; prefer the solver
objects whenever more than one query hits the same covariance.

>>> import numpy as np
>>> from repro.solver import MVNSolver, SolverConfig
>>> sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
>>> with MVNSolver(SolverConfig(method="dense", n_samples=2000)) as solver:
...     model = solver.model(sigma)
...     r1 = model.probability([-np.inf, -np.inf], [0.0, 0.0], rng=0)
...     r2 = model.probability([-np.inf, -np.inf], [1.0, 1.0], rng=0)
...     factorizations = solver.cache.factorize_count
>>> factorizations  # both queries share one Cholesky factor
1
>>> r1.probability < r2.probability
True
"""

from __future__ import annotations

import numpy as np

from repro.batch.cache import FactorCache, sigma_fingerprint
from repro.core.crd import ConfidenceRegionResult, _confidence_region_impl
from repro.core.factor import CholeskyFactor, TLRFactor, factorize
from repro.core.methods import BASELINE_ESTIMATORS, check_factor_args
from repro.core.pmvn import (
    PMVNOptions,
    SweepWorkspace,
    _check_boxes,
    _resolve_means,
    _shared_mean,
    _stamp_estimator,
    pmvn_integrate_batch,
)
from repro.core.update import FactorLineage, lineage_fingerprint, normalize_update, update_factor
from repro.mvn.result import MVNResult
from repro.query import MVNQuery, QueryPlan, QueryPlanner
from repro.query.pipeline import escalate_batch
from repro.query.spec import one_sided_fraction
from repro.runtime import Runtime
from repro.solver.config import SolverConfig
from repro.utils.timers import collect_timings
from repro.utils.validation import check_covariance

__all__ = ["MVNSolver", "Model"]

#: default sentinel: "the solver owns a fresh cache" (pass ``cache=None`` to
#: disable caching entirely, or an existing FactorCache to share one)
_OWNED_CACHE = object()


class MVNSolver:
    """A long-lived MVN evaluation session.

    Parameters
    ----------
    config : SolverConfig or str, optional
        Evaluation settings; a plain method string is accepted as shorthand
        for ``SolverConfig(method=...)``.  Defaults to ``SolverConfig()``.
    n_workers : int
        Worker threads of the owned runtime (ignored when ``runtime=`` is
        given).
    policy : str, optional
        Scheduling policy of the owned runtime.  Precedence: this argument,
        then ``config.policy``, then the ``"prio"`` default (see
        ``docs/runtime.md`` for the policy table).
    runtime : Runtime, optional
        Use an existing runtime instead of owning one.  A borrowed runtime
        is *not* closed when the solver closes.
    cache : FactorCache or None, optional
        Share an existing factor cache, or pass ``None`` to disable factor
        caching (every model still factorizes at most once — the cache only
        adds sharing *across* models/solvers).  By default the solver owns a
        fresh cache.
    cache_entries : int
        Capacity of the owned cache.
    planner : repro.query.QueryPlanner, optional
        The planner resolving ``method="auto"`` and adaptive-accuracy
        schedules for this solver's models (default thresholds otherwise).

    Notes
    -----
    The solver is a context manager; :meth:`close` shuts down the owned
    runtime and drops the owned cache, and any later use of the solver or
    its models raises :class:`RuntimeError`.
    """

    def __init__(
        self,
        config: SolverConfig | str | None = None,
        *,
        n_workers: int = 1,
        policy: str | None = None,
        runtime: Runtime | None = None,
        cache=_OWNED_CACHE,
        cache_entries: int = 8,
        planner: QueryPlanner | None = None,
    ) -> None:
        if config is None:
            config = SolverConfig()
        elif isinstance(config, str):
            config = SolverConfig(method=config)
        elif not isinstance(config, SolverConfig):
            raise TypeError(f"config must be a SolverConfig or method string, got {type(config).__name__}")
        self.config = config
        self._owns_runtime = runtime is None
        effective_policy = policy if policy is not None else (config.policy or "prio")
        self.runtime = (
            Runtime(n_workers=n_workers, policy=effective_policy)
            if runtime is None
            else Runtime.ensure(runtime)
        )
        self._owns_cache = cache is _OWNED_CACHE
        self.cache: FactorCache | None = FactorCache(max_entries=cache_entries) if self._owns_cache else cache
        if self.cache is not None and not isinstance(self.cache, FactorCache):
            raise TypeError(f"cache must be a FactorCache or None, got {type(self.cache).__name__}")
        self.planner = QueryPlanner() if planner is None else planner
        if not isinstance(self.planner, QueryPlanner):
            raise TypeError(f"planner must be a QueryPlanner, got {type(self.planner).__name__}")
        # pooled sweep buffers (wave matrices + per-worker kernel/GEMM
        # scratch) shared by every model of this session, so a new model,
        # an updated child or a detection on a fresh mean sweeps warm
        # buffers instead of first-touching its own pool
        self._sweep_workspace: SweepWorkspace | None = SweepWorkspace()
        self._closed = False

    # -- lifecycle -----------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (a closed solver rejects queries)."""
        return self._closed

    def close(self) -> None:
        """End the session: close the owned runtime, drop the owned cache.

        Also releases the pooled sweep buffers.  Idempotent.  A borrowed
        runtime/cache is left untouched so it can serve other solvers.
        """
        if self._closed:
            return
        self._closed = True
        self._sweep_workspace = None
        if self._owns_runtime:
            self.runtime.close()
        if self._owns_cache and self.cache is not None:
            self.cache.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "this MVNSolver is closed; models created from it are no longer "
                "usable — create a new solver (or keep the solver open while "
                "queries are outstanding)"
            )

    def __enter__(self) -> "MVNSolver":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"MVNSolver(method={self.config.method!r}, "
            f"n_workers={self.runtime.n_workers}, {state})"
        )

    # -- models --------------------------------------------------------------------
    def model(self, sigma, mean=0.0, factor: CholeskyFactor | None = None) -> "Model":
        """Bind a covariance (and mean) to this solver as a :class:`Model`.

        Parameters
        ----------
        sigma : array_like (n, n)
            Covariance matrix of the model.
        mean : float or array_like (n,)
            Mean of the field (absorbed into the limits at query time).
        factor : CholeskyFactor, optional
            Pre-computed factor of ``sigma``; skips factorization entirely
            (factor-based methods only).
        """
        self._check_open()
        check_factor_args(self.config.method, factor, None)
        return Model(self, sigma, mean=mean, factor=factor)


class Model:
    """A covariance bound to a solver, pre-factorized on first use.

    Create via :meth:`MVNSolver.model`.  All queries share one Cholesky
    factor (built lazily through the solver's cache) and the solver's
    runtime; ``n_samples=`` / ``rng=`` / ``qmc=`` may be overridden per
    call, everything else follows the solver's :class:`SolverConfig`.
    """

    def __init__(self, solver: MVNSolver, sigma, mean=0.0, factor: CholeskyFactor | None = None) -> None:
        self._solver = solver
        # sigma may be None for models produced by :meth:`update`: the child
        # covariance is derivable (``parent ± U U^T``) but never needed on
        # the query fast path, so it is assembled lazily via ``_sigma_thunk``
        self._sigma_arr: np.ndarray | None = (
            None if sigma is None else np.asarray(sigma, dtype=np.float64)
        )
        self._sigma_thunk = None
        if self._sigma_arr is not None:
            self._n = int(self._sigma_arr.shape[0])
        elif factor is not None:
            self._n = int(factor.n)
        else:
            raise ValueError("Model needs a covariance matrix or a pre-computed factor")
        self._fingerprint: str | None = None
        self._lineage: FactorLineage | None = None
        # covariance validation happens at most once per model, not once
        # per detection (see _confidence_region_impl)
        self._sigma_validated = False
        # reordered correlation matrices per (detection ordering, nugget):
        # a threshold sweep with a threshold-invariant ordering standardizes
        # once instead of per detection (see _confidence_region_impl)
        self._std_memo: dict = {}
        self._mean = mean
        # one factor per resolved method: ``method="auto"`` may legitimately
        # answer different queries with different estimators against one model
        self._factors: dict[str, CholeskyFactor] = {}
        self._bound_method: str | None = None
        if factor is not None:
            if not isinstance(factor, CholeskyFactor):
                raise TypeError(f"factor must be a CholeskyFactor, got {type(factor).__name__}")
            self._bound_method = "tlr" if isinstance(factor, TLRFactor) else "dense"
            self._factors[self._bound_method] = factor
        # planner state: the structure probe depends only on (sigma, accuracy)
        # and is memoized so repeated auto queries plan without re-probing
        self._planner = solver.planner
        self._probe: dict | None = None
        # sweeps run on the solver's pooled buffers, so a model costs no
        # pool of its own; a sweep that finds the pool busy (another model
        # of this solver sweeping at the same time) runs on a transient one

    @property
    def solver(self) -> MVNSolver:
        """The owning session (runtime, cache and config live there)."""
        return self._solver

    @property
    def config(self) -> SolverConfig:
        """The owning solver's evaluation settings."""
        return self._solver.config

    @property
    def _sigma(self) -> np.ndarray:
        """The covariance array, assembling an updated model's lazily.

        Updated models answer factor-based queries without ever touching
        this; only the covariance-level estimators (``mc``/``sov``), the
        structure probe and :attr:`sigma` itself force assembly.
        """
        if self._sigma_arr is None:
            if self._sigma_thunk is None:
                raise RuntimeError("model has neither a covariance nor a way to assemble one")
            self._sigma_arr = np.asarray(self._sigma_thunk(), dtype=np.float64)
            self._sigma_thunk = None
        return self._sigma_arr

    @property
    def sigma(self) -> np.ndarray:
        """The bound covariance matrix (assembled on demand for updated models)."""
        return self._sigma

    @property
    def mean(self):
        """The bound mean (absorbed into the limits at query time)."""
        return self._mean

    @property
    def n(self) -> int:
        """Dimensionality of the model."""
        return self._n

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the covariance (derived for updated models).

        For a model built from a covariance array this is
        :func:`repro.batch.sigma_fingerprint`; for a model produced by
        :meth:`update` it is the *derived*
        :func:`repro.core.update.lineage_fingerprint`, computed without
        assembling the child covariance.
        """
        if self._fingerprint is None:
            cache = self._solver.cache
            if cache is not None:
                self._fingerprint = cache._fingerprint(self._sigma)
            else:
                self._fingerprint = sigma_fingerprint(self._sigma)
        return self._fingerprint

    @property
    def lineage(self) -> FactorLineage | None:
        """Provenance of an updated model (``None`` for a root model)."""
        return self._lineage

    @property
    def factor(self) -> CholeskyFactor | None:
        """The bound factor, or ``None`` if not yet factorized.

        With ``method="auto"`` a model may hold one factor per resolved
        method; this returns the factor of the configured method, falling
        back to the single held factor (if exactly one exists).
        """
        factor = self._factors.get(self.config.method)
        if factor is None and len(self._factors) == 1:
            factor = next(iter(self._factors.values()))
        return factor

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "factorized" if self._factors else "lazy"
        return f"Model(n={self.n}, method={self.config.method!r}, {state})"

    # -- planning ------------------------------------------------------------------
    def plan(self, query: MVNQuery | None = None, **overrides) -> QueryPlan:
        """The :class:`repro.query.QueryPlan` this model would execute.

        Pure inspection: nothing is factorized or swept.  ``overrides``
        are forwarded to :meth:`repro.query.QueryPlanner.plan`
        (``n_samples=``, ``target_error=``, ...).
        """
        self._solver._check_open()
        cfg = self.config
        if cfg.is_auto and self._probe is None and self._bound_method is None \
                and self.n > self._planner.dense_max_n:
            self._probe = self._planner.probe_structure(self._sigma, cfg.accuracy)
        # an updated model plans from its dimension alone — never assemble
        # the child covariance just to read its shape
        return self._planner.plan(
            self._sigma_arr, cfg, query, n=self._n,
            bound_method=self._bound_method if cfg.is_auto else None,
            probe=self._probe, **overrides,
        )

    # -- factorization -------------------------------------------------------------
    def factorize(self) -> CholeskyFactor:
        """Factor the covariance now (instead of lazily on the first query).

        With ``method="auto"`` the planner resolves the method first (the
        eager factor is the one the default query shape would use).
        """
        self._solver._check_open()
        cfg = self.config
        method = self.plan().method if cfg.is_auto else cfg.method
        if method not in ("dense", "tlr"):
            raise ValueError(
                f"method {cfg.method!r} does not use a Cholesky factor; "
                "nothing to factorize"
            )
        return self._ensure_factor(method)

    def _ensure_factor(self, method: str) -> CholeskyFactor:
        factor = self._factors.get(method)
        if factor is None:
            cfg = self.config
            cache = self._solver.cache
            if cache is not None:
                factor = cache.get_or_factorize(
                    self._sigma, method=method, tile_size=cfg.tile_size,
                    accuracy=cfg.accuracy, max_rank=cfg.max_rank,
                    runtime=self._solver.runtime,
                )
            else:
                factor = factorize(
                    self._sigma, method=method, tile_size=cfg.tile_size,
                    accuracy=cfg.accuracy, max_rank=cfg.max_rank,
                    runtime=self._solver.runtime,
                )
            self._factors[method] = factor
        return factor

    # -- online updates ------------------------------------------------------------
    def update(self, u, downdate: bool = False, *, mean=None) -> "Model":
        """Rank-k covariance update: a new model of ``Sigma ± U U^T``.

        Performs a Cholesky up-date (``downdate=False``) or down-date
        (``downdate=True``) of this model's factor — ``O(n^2 k)`` instead
        of the ``O(n^3)`` refactorization a fresh
        :meth:`MVNSolver.model` call would pay — and returns a *child*
        model that answers queries immediately.  The child:

        * never assembles its covariance on the query fast path (its
          fingerprint is derived from the parent's, see
          :func:`repro.core.update.lineage_fingerprint`);
        * is registered in the solver's :class:`~repro.batch.FactorCache`
          under the derived fingerprint, with the lineage recorded so the
          serve broker can route it to the shard holding the parent;
        * inherits (or invalidates) the parent's structure-probe record
          per :meth:`repro.query.QueryPlanner.inherit_probe`;
        * stamps ``details["lineage"]`` on every result.

        Raises :class:`repro.core.update.DowndateError` when a downdate
        would destroy positive definiteness; this model is left intact.

        Parameters
        ----------
        u : array_like (n, k) or (n,)
            The update matrix (a vector is a rank-1 update).
        downdate : bool
            Subtract ``U U^T`` instead of adding it.
        mean : optional
            Mean of the child model (defaults to this model's mean).
        """
        solver = self._solver
        solver._check_open()
        u = normalize_update(u, self.n)
        cfg = solver.config
        if self._bound_method is not None:
            method = self._bound_method
        elif cfg.is_auto:
            method = self.plan().method
        elif cfg.method in ("dense", "tlr"):
            method = cfg.method
        else:
            raise ValueError(
                f"Model.update requires a factor-based method ('dense' or "
                f"'tlr'), not {cfg.method!r}"
            )
        parent_factor = self._ensure_factor(method)
        child_factor = update_factor(parent_factor, u, downdate=downdate)

        parent_fp = self.fingerprint
        child_fp = lineage_fingerprint(parent_fp, u, downdate)
        depth = 1 if self._lineage is None else self._lineage.depth + 1
        lineage = FactorLineage(
            parent_fingerprint=parent_fp, child_fingerprint=child_fp,
            rank=int(u.shape[1]), downdate=bool(downdate), depth=depth,
        )
        cache = solver.cache
        if cache is not None:
            cache.register_factor(
                child_fp, child_factor, method=method, tile_size=cfg.tile_size,
                accuracy=cfg.accuracy, max_rank=cfg.max_rank,
            )
            cache.record_update(lineage)

        child = Model(solver, None, mean=self._mean if mean is None else mean,
                      factor=child_factor)
        child._fingerprint = child_fp
        child._lineage = lineage
        child._probe = self._planner.inherit_probe(self._probe, u.shape[1], downdate)
        # capture what assembles the parent's covariance, never the parent
        # model itself: its factors must be free to die with it, however
        # long the chain of descendants grows
        sign = -1.0 if downdate else 1.0
        if self._sigma_arr is not None:
            sigma_arr = self._sigma_arr
            child._sigma_thunk = lambda: sigma_arr + sign * (u @ u.T)
        elif self._sigma_thunk is not None:
            parent_thunk = self._sigma_thunk
            child._sigma_thunk = lambda: parent_thunk() + sign * (u @ u.T)
        return child

    # -- queries -------------------------------------------------------------------
    def probability(
        self, a, b, *, n_samples: int | None = None, rng=None, qmc: str | None = None,
        target_error: float | None = None, max_samples: int | None = None,
    ) -> MVNResult:
        """Estimate ``P(a <= X <= b)`` for this model.

        Bit-identical to :func:`repro.mvn_probability` with the same
        settings and seed; the factorization — and, for the factor-based
        methods, the solver's pooled sweep workspace — is reused across calls.
        Run the call inside :func:`repro.utils.timers.collect_timings` for
        the per-phase breakdown (factorization, QMC generation, kernel
        sweep, GEMM propagation).  ``target_error=`` turns on adaptive
        accuracy targeting (escalating re-runs within the ``max_samples``
        budget); the decision trail lands in ``result.details["plan"]``.
        """
        query = MVNQuery(
            a, b, n_samples=n_samples, rng=rng, qmc=qmc,
            target_error=target_error, max_samples=max_samples,
        )
        return self.query(query)

    def query(self, query: MVNQuery) -> MVNResult:
        """Execute one declarative :class:`repro.query.MVNQuery`.

        The spec -> plan -> execute path every entry point funnels through.
        A single query is a batch of one: the planner resolves the estimator
        (``method="auto"``) and kernel backend from the query, then the box
        runs through exactly the sweep -> escalate -> stamp path of
        :meth:`probability_batch` — once, or with escalating sample counts
        when ``query.target_error`` is set — reusing the model's cached
        factor and pooled workspaces.  The plan and the escalation outcome
        are recorded under ``result.details["plan"]``.
        """
        self._solver._check_open()
        if not isinstance(query, MVNQuery):
            raise TypeError(f"query must be an MVNQuery, got {type(query).__name__}")
        mean = self._mean if query.mean is None else query.mean
        return self._run(
            [(query.a, query.b)], _shared_mean(mean, 1, self.n), query.qmc, query.rng, query,
        )[0]

    def probability_batch(
        self, boxes, *, means=None, n_samples: int | None = None, rng=None,
        qmc: str | None = None, target_error: float | None = None,
        max_samples: int | None = None,
    ) -> list[MVNResult]:
        """Estimate ``P(a_i <= X <= b_i)`` for many boxes against this model.

        ``means`` defaults to the model's bound mean for every box;
        otherwise it accepts everything
        :func:`repro.batch.mvn_probability_batch` does.  ``target_error=``
        applies per box: boxes whose standard error misses the target are
        re-swept at escalating sample counts (the same schedule a single
        :meth:`probability` call follows, so per-box results stay identical
        across entry points for integer seeds) until the target or the
        ``max_samples`` budget is reached.
        """
        self._solver._check_open()
        boxes = list(boxes)
        if means is None:
            means = _shared_mean(self._mean, len(boxes), self.n)
        if target_error is not None and not (float(target_error) > 0.0):
            raise ValueError(f"target_error must be > 0, got {target_error!r}")
        if max_samples is not None and n_samples is not None and max_samples < n_samples:
            # mirror the MVNQuery contract so single and batched adaptive
            # calls accept exactly the same arguments
            raise ValueError(
                f"max_samples ({max_samples}) must be >= the initial "
                f"n_samples ({n_samples})"
            )
        results = self._run(
            boxes, means, qmc, rng, n_samples=n_samples,
            target_error=None if target_error is None else float(target_error),
            max_samples=max_samples,
        )
        for idx, result in enumerate(results):
            result.details["batch_index"] = idx
            result.details["batch_size"] = len(results)
        return results

    def _run(self, boxes, means, qmc, rng, query=None, **overrides) -> list[MVNResult]:
        """Validate, plan, sweep, escalate and stamp: the path of every query.

        ``query`` (a single query's spec) and ``overrides`` seed the plan.
        Under an adaptive plan, boxes that miss the target are re-swept at
        escalating sample counts (:func:`repro.query.pipeline.escalate_batch`).
        """
        # the uniform query-boundary validation: a bad box raises the same
        # ValueError on every entry point, before any factorization is paid
        # (or cached)
        checked = _check_boxes(boxes, self.n)
        plan = self.plan(query, one_sided_fraction=one_sided_fraction(checked), **overrides)
        qmc = self.config.qmc if qmc is None else qmc

        results = self._evaluate_batch(plan, checked, means, plan.n_samples, qmc, rng)
        rounds = [1] * len(checked)
        samples_used = [plan.n_samples] * len(checked)
        if plan.target_error is not None:
            resolved = _resolve_means(means, len(checked), self.n)
            escalate_batch(
                lambda indices, n_next: self._evaluate_batch(
                    plan, [checked[i] for i in indices],
                    np.stack([resolved[i] for i in indices]),
                    n_next, qmc, rng,
                ),
                plan, results, rounds, samples_used,
            )
        for idx, result in enumerate(results):
            met = None
            if plan.target_error is not None:
                met = bool(result.error <= plan.target_error)
            result.details["plan"] = plan.as_details(
                rounds=rounds[idx], samples_used=samples_used[idx], target_met=met
            )
            if self._lineage is not None:
                result.details["lineage"] = self._lineage.as_details()
        return results

    def _evaluate_batch(self, plan: QueryPlan, boxes, means, n_samples, qmc, rng) -> list[MVNResult]:
        """One evaluation of the boxes with the planned method and backend."""
        estimator = BASELINE_ESTIMATORS.get(plan.method)
        if estimator is not None:
            # the single-node baselines have no batched sweep: one call per box
            mus = _resolve_means(means, len(boxes), self.n)
            return [
                estimator(a, b, self._sigma, n_samples=n_samples, mean=mu, qmc=qmc, rng=rng)
                for (a, b), mu in zip(boxes, mus)
            ]
        factor = self._ensure_factor(plan.method)
        options = PMVNOptions(
            n_samples=n_samples, qmc=qmc, rng=rng, backend=plan.backend,
            workspace=self._solver._sweep_workspace,
            kernel_threads=self.config.kernel_threads,
        )
        results = pmvn_integrate_batch(boxes, factor, options, runtime=self._solver.runtime, means=means)
        _stamp_estimator(results, plan.method, factor)
        return results

    def confidence_region(
        self, threshold: float, *, algorithm: str = "prefix",
        n_samples: int | None = None, rng=None, qmc: str | None = None,
        nugget: float = 1e-8, levels=None,
    ) -> ConfidenceRegionResult:
        """Run confidence-region detection (Algorithm 1) on this model.

        Uses the model's bound mean and the solver's factor cache, so
        repeated detections against the same field factorize once.  With
        ``method="auto"`` the planner resolves the factor-based estimator
        (auto always plans ``"dense"`` or ``"tlr"``).  The detection's own
        phase timings land in ``result.details["timings"]`` (and in any
        enclosing :func:`repro.utils.timers.collect_timings` block).
        """
        solver = self._solver
        solver._check_open()
        cfg = solver.config
        if cfg.is_auto:
            plan = self.plan(n_samples=n_samples)
            method, backend = plan.method, plan.backend
        elif cfg.is_parallel:
            method, backend = cfg.method, cfg.backend
        else:
            raise ValueError(
                f"confidence_region requires a factor-based method "
                f"('dense' or 'tlr'), not {cfg.method!r}"
            )
        n_samples = cfg.n_samples if n_samples is None else n_samples
        qmc = cfg.qmc if qmc is None else qmc
        if not self._sigma_validated:
            self._sigma_arr = check_covariance(self._sigma, "covariance")
            self._sigma_validated = True
        with collect_timings() as timings:
            result = _confidence_region_impl(
                self._sigma, self._mean, threshold, method=method,
                algorithm=algorithm, n_samples=n_samples, tile_size=cfg.tile_size,
                accuracy=cfg.accuracy, max_rank=cfg.max_rank,
                runtime=solver.runtime, qmc=qmc, rng=rng, nugget=nugget,
                levels=levels, cache=solver.cache,
                backend=backend, workspace=solver._sweep_workspace,
                std_memo=self._std_memo,
            )
        result.details["timings"] = timings.summary()
        return result
