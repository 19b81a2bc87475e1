"""The cost-model planner: ``(MVNQuery, covariance, config)`` -> ``QueryPlan``.

The planner separates *what* a query asks (:class:`~repro.query.spec.MVNQuery`)
from *how* it runs, the same spec-then-plan split scheduler-style systems use.
Its output is an explicit, inspectable :class:`QueryPlan`:

* the **estimator** — for ``method="auto"`` the cheaper of ``"dense"`` and
  ``"tlr"`` in modelled seconds (:meth:`QueryPlanner.cost_estimates`): both
  candidates are priced from one rate table (:data:`PLANNER_RATES`) over
  the dimension ``n``, the session's sample size ``N``, the tile size and
  the off-diagonal rank, and ``auto`` takes the argmin.  The rank comes from a
  one-off **structure probe** (truncated SVD of an adjacent off-diagonal
  block, mirroring the TLR truncation rule), which runs only when it can
  change the answer: when dense already wins against TLR priced at rank 1,
  no probe runs;
* the **kernel backend**, resolved to the concrete backend the sweep will
  dispatch to (``None`` follows ``$REPRO_KERNEL_BACKEND`` to a real name);
* the **adaptive-accuracy schedule** — the initial sample count, the error
  target and the sample budget of the escalation loop
  (:meth:`QueryPlan.with_schedule` sets it, :func:`next_sample_count`
  computes each refinement step).

Candidates are priced at the session's sample size (``config.n_samples``)
whatever a query overrides, so the covariance and the configuration alone
fix the method.  A :class:`repro.solver.Model` therefore plans once, on
first use, and each of its queries only applies its schedule to that one
decision; every stage of a pipeline runs its covariance's one plan.
Planning is deterministic: the rates are constants, nothing is timed on
the plan path, so the same covariance plans identically whether a query
arrives through the functional API, a model, the batched API or a serving
shard.  One-sidedness enters the modelled *costs* (the fused kernel skips
infinite sides) but adds the same term to every candidate, so the method
choice is sidedness-invariant.

>>> import numpy as np
>>> from repro.query import QueryPlanner
>>> from repro.solver import SolverConfig
>>> sigma = np.eye(6) + 0.1
>>> plan = QueryPlanner().plan(sigma, SolverConfig(method="auto", n_samples=500))
>>> plan.method, plan.auto
('dense', True)
>>> "dense" in plan.costs and "tlr" in plan.costs
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.factor import CholeskyFactor, default_tile_size
from repro.core.kernel_backend import get_backend
from repro.core.methods import AUTO_METHOD, PARALLEL_METHODS, check_factor_args
from repro.core.pmvn import sweep_tiles
from repro.distributed.pmvn_model import KernelRates
from repro.query.spec import MVNQuery
from repro.runtime.estimates import ModelEstimator
from repro.utils.validation import check_schedule

__all__ = [
    "QueryPlan",
    "QueryPlanner",
    "PlannerRates",
    "PLANNER_RATES",
    "plan_query",
    "next_sample_count",
    "DEFAULT_BUDGET_MULTIPLIER",
]

#: default sample budget of the adaptive loop: ``max_samples`` defaults to
#: this multiple of the initial sample size when a target is set without an
#: explicit budget
DEFAULT_BUDGET_MULTIPLIER = 64

#: escalation schedule: never grow by less than this factor per round ...
ESCALATION_GROWTH = 2.0
#: ... and pad the MC-scaling prediction by this safety factor (QMC error
#: usually shrinks faster than ``N^{-1/2}``, but the prediction must not
#: undershoot on the runs where it does not)
ESCALATION_SAFETY = 1.2

#: side of the off-diagonal block the structure probe decomposes (capped at
#: ``n // 2``)
PROBE_SIZE = 96


@dataclass(frozen=True)
class PlannerRates:
    """The rate table ``method="auto"`` prices its candidates with.

    Attributes
    ----------
    kernels : repro.distributed.pmvn_model.KernelRates
        BLAS-3 rate of the dense tile kernels (potrf/trsm/syrk/gemm) and of
        the sweep's limit-propagation GEMMs, dense and low-rank alike (their
        long chain dimension keeps them BLAS-3 shaped), and the QMC row
        rate.
    lowrank_gflops : float
        GFLOP/s of the rank-``k`` kernels of TLR compression and TLR
        Cholesky: small GEMMs wrapped in QR/SVD calls, an order of magnitude
        below the BLAS-3 rate.
    task_seconds : float
        Overhead of one runtime task (and of one compressed tile).
    """

    kernels: KernelRates
    lowrank_gflops: float
    task_seconds: float


#: The planner's rates, fitted once on a 2-core x86_64 box (one BLAS thread,
#: one runtime worker, numpy kernel backend): least squares in log seconds
#: over the dense Cholesky, TLR compression, TLR Cholesky and both sweeps,
#: timed at the points below (cold ``mvn_probability``, boxes ``a = -inf``,
#: ``b ~ U(0.5, 2.5)``, accuracy 1e-3, min of 3).  ``k`` is the probe rank;
#: totals in ms.  Fields: ``crd`` is the exponential field of range 0.234
#: on a square grid, ``gateway`` range 0.05, ``dist`` the distributed
#: serving gate's fields, the other three the planner gate's scenarios.
#: The measured columns were re-timed in one session once the TLR Cholesky
#: compressed each tile once, after its last update (the dense code did not
#: change; its column moved with the box); the model columns are the
#: current model's, priced for these one-sided boxes.
#:
#: ============  ====  ====  ==  ===========  =========  ===========  =========
#: point         n     N     k   dense meas.  tlr meas.  dense model  tlr model
#: ============  ====  ====  ==  ===========  =========  ===========  =========
#: gateway        256   256  23          8.9       11.8          6.4        7.7
#: small_dense    196  1000  20         15.7       16.5         15.7       16.7
#: dist small     100   200  14          3.2        3.4          1.8        1.9
#: banded_tile    784  2000   1        149.8      129.4        137.5      120.6
#: crd           1024  1000  24        112.2      112.3        100.4      109.4
#: crd           1024  4000  24        352.4      317.2        358.3      337.2
#: dist large    1024   200  16         50.1       57.0         32.7       41.7
#: lowrank_tlr   1600  4000  22        727.7      585.0        626.0      529.3
#: crd           2025  1000  27        342.8      263.3        307.1      294.4
#: ============  ====  ====  ==  ===========  =========  ===========  =========
#:
#: The argmin picks the faster method at every point, so the rates were not
#: refit.  The closest is ``crd`` at N = 1000: over three rounds of 7
#: interleaved repeats dense took 113.8-119.7 ms and TLR 116.2-126.2 ms
#: (TLR won 2 of 21).  With several BLAS threads per worker the TLR kernels
#: slow down (about 2x on that box), so the rates assume one BLAS thread
#: per runtime worker.
PLANNER_RATES = PlannerRates(
    kernels=KernelRates(core_gflops=57.0, qmc_rows_per_second=11.2e6),
    lowrank_gflops=5.9,
    task_seconds=54e-6,
)


def next_sample_count(
    current: int,
    error: float,
    target: float,
    max_samples: int,
    growth: float = ESCALATION_GROWTH,
    safety: float = ESCALATION_SAFETY,
) -> int | None:
    """The next escalation step of the adaptive loop, or ``None`` to stop.

    Predicts the sample count that would meet ``target`` under Monte Carlo
    ``N^{-1/2}`` scaling (a conservative bound for the QMC estimators),
    pads it by ``safety``, and never grows by less than ``growth``x per
    round.  Returns ``None`` when the estimate already meets the target or
    the budget admits no further growth — the caller then stops (and flags
    the budget exhaustion when the target is unmet).

    >>> next_sample_count(1000, error=4e-3, target=1e-3, max_samples=100_000)
    19200
    >>> next_sample_count(1000, error=4e-3, target=1e-3, max_samples=1500)
    1500
    >>> next_sample_count(1500, error=4e-3, target=1e-3, max_samples=1500) is None
    True
    >>> next_sample_count(1000, error=5e-4, target=1e-3, max_samples=100_000) is None
    True
    """
    if not (error > target):
        return None
    predicted = current * (error / target) ** 2 * safety
    escalated = max(int(math.ceil(growth * current)), int(math.ceil(predicted)))
    escalated = min(escalated, int(max_samples))
    if escalated <= current:
        return None
    return escalated


@dataclass(frozen=True)
class QueryPlan:
    """An explicit, executable decision for one query (or one batch).

    Attributes
    ----------
    method : str
        The concrete estimator the sweep will run (never ``"auto"``).
    backend : str or None
        Resolved kernel backend name for the factor-based methods
        (``None`` for the baselines, which have no tile kernel).
    n_samples : int
        Initial QMC sample size of the first round.
    target_error : float or None
        Standard-error ceiling of the adaptive loop (``None`` = single
        round).
    max_samples : int
        Per-box sample budget of the adaptive loop (equals ``n_samples``
        when no target is set).
    auto : bool
        Whether the method was planner-chosen (``method="auto"``).
    requested_method : str
        The method string the caller configured (``"auto"`` or explicit).
    reason : str
        One line explaining the decision (both modelled totals, the rank
        TLR was priced at, a bound factor, ...).
    costs : dict
        Modelled cost breakdown per candidate method
        (``{"dense": {"factorization": ..., "total": ...}, "tlr": ...}``),
        in seconds at the session's sample size; TLR is priced at the
        probe's rank, or at rank 1 when no probe ran.
    probe : dict or None
        Structure-probe record (``block``, ``est_rank``, ``rank_ratio``)
        when the probe ran, else ``None``.
    """

    method: str
    backend: str | None
    n_samples: int
    target_error: float | None
    max_samples: int
    auto: bool
    requested_method: str
    reason: str
    costs: dict = field(default_factory=dict)
    probe: dict | None = None

    def with_schedule(self, query: MVNQuery | None = None, *, n_samples: int | None = None,
                      target_error: float | None = None,
                      max_samples: int | None = None) -> QueryPlan:
        """This decision under a query's sample schedule.

        ``n_samples``, ``target_error`` and ``max_samples`` override the
        query's; an unset sample size keeps this plan's.  With a target and
        no budget, ``max_samples`` defaults to
        :data:`DEFAULT_BUDGET_MULTIPLIER` times the initial sample size;
        without a target it equals the sample size (one round).
        """
        if query is not None:
            n_samples = query.n_samples if n_samples is None else n_samples
            target_error = query.target_error if target_error is None else target_error
            max_samples = query.max_samples if max_samples is None else max_samples
        n_samples = self.n_samples if n_samples is None else n_samples
        if target_error is None:
            max_samples = n_samples
        elif max_samples is None:
            max_samples = DEFAULT_BUDGET_MULTIPLIER * n_samples
        return replace(self, n_samples=n_samples, target_error=target_error,
                       max_samples=max_samples)

    def as_details(self, *, rounds: int = 1, samples_used: int | None = None,
                   target_met: bool | None = None) -> dict:
        """The JSON-safe ``details["plan"]`` record stamped on results."""
        if samples_used is None:
            samples_used = self.n_samples
        if target_met is None and self.target_error is not None:
            target_met = True
        return {
            "method": self.method,
            "requested_method": self.requested_method,
            "backend": self.backend,
            "auto": self.auto,
            "reason": self.reason,
            "rounds": int(rounds),
            "samples_used": int(samples_used),
            "target_error": self.target_error,
            "max_samples": self.max_samples,
            "target_met": target_met,
        }

    def describe(self) -> str:
        """Human-readable rendering (the ``repro plan`` CLI output)."""
        lines = [
            f"method           : {self.method}"
            + ("" if not self.auto else "  (chosen by the planner)"),
            f"requested        : {self.requested_method}",
            f"kernel backend   : {self.backend or '-'}",
            f"initial samples  : {self.n_samples}",
        ]
        if self.target_error is not None:
            lines.append(f"target error     : {self.target_error:g}")
            lines.append(f"sample budget    : {self.max_samples}")
        lines.append(f"reason           : {self.reason}")
        if self.probe is not None:
            lines.append(
                "structure probe  : "
                f"{self.probe['block']}x{self.probe['block']} off-diagonal block, "
                f"est. rank {self.probe['est_rank']} "
                f"(ratio {self.probe['rank_ratio']:.2f})"
            )
        if self.costs:
            rank = "the probe rank" if self.probe is not None else "rank 1 (no probe)"
            lines.append(f"cost estimates in seconds (tlr at {rank}):")
            for name in sorted(self.costs):
                parts = self.costs[name]
                detail = ", ".join(
                    f"{phase}={parts[phase]:.3g}"
                    for phase in sorted(parts)
                    if phase != "total"
                )
                marker = " <- chosen" if name == self.method else ""
                lines.append(f"  {name:<6} total={parts['total']:.3g}  ({detail}){marker}")
        return "\n".join(lines)


@dataclass(frozen=True)
class QueryPlanner:
    """Deterministic planner turning queries into :class:`QueryPlan` objects.

    Parameters
    ----------
    rates : PlannerRates
        The rate table ``method="auto"`` prices its candidates with
        (default :data:`PLANNER_RATES`, fitted on a 2-core box).
    """

    rates: PlannerRates = PLANNER_RATES

    # -- structure probe -------------------------------------------------------------
    def probe_structure(self, sigma: np.ndarray, accuracy: float) -> dict:
        """Estimate off-diagonal compressibility from one adjacent block.

        Takes the ``m x m`` block just below the diagonal (the *adjacent*
        tile at probe scale — the highest-rank off-diagonal tile of a
        distance-decaying kernel, so the estimate is conservative) and
        counts the singular values above ``accuracy * s_max``, mirroring the
        TLR truncation rule of :mod:`repro.tlr.compression`.
        """
        sigma = np.asarray(sigma, dtype=np.float64)
        n = sigma.shape[0]
        m = max(2, min(PROBE_SIZE, n // 2))
        block = sigma[m : 2 * m, 0:m]
        s = np.linalg.svd(block, compute_uv=False)
        if s.size == 0 or s[0] <= 0.0:
            est_rank = 0
        else:
            est_rank = int(np.sum(s > accuracy * s[0]))
        return {
            "block": m,
            "est_rank": est_rank,
            "rank_ratio": est_rank / float(m),
            "accuracy": float(accuracy),
        }

    # -- cost model ------------------------------------------------------------------
    def cost_estimates(self, n: int, n_samples: int, tile_size: int,
                       rank: int, one_sided_fraction: float = 0.0) -> dict:
        """Modelled seconds of the ``dense`` and ``tlr`` candidates.

        Closed-form task counts over the task graphs the two methods run,
        each times its per-tag price from
        :class:`repro.runtime.ModelEstimator`: the tiled Cholesky (``nt``
        potrf, ``nt(nt-1)/2`` trsm and syrk, ``nt(nt-1)(nt-2)/6`` gemm) and
        its sweep (one limit-propagation GEMM per off-diagonal tile) against
        TLR compression (one sketch per off-diagonal tile, proportional to
        the ``rank`` plus one QB block), the TLR Cholesky's rank-``k``
        updates and the low-rank sweep.  Dense tiles and sweep GEMMs are
        priced at the BLAS-3 rate, the rank-``k`` kernels at
        :attr:`PlannerRates.lowrank_gflops`, and every task pays
        :attr:`PlannerRates.task_seconds`.  The QMC-kernel term and the
        sweep's task overhead are shared by both candidates, so
        one-sidedness shifts the totals but never the ordering.
        """
        blas_rates = self.rates.kernels
        nb = tile_size
        k = max(1, min(int(rank), nb))
        blas = ModelEstimator(blas_rates, nb, n_samples, k).price
        lowrank = ModelEstimator(
            replace(blas_rates, core_gflops=self.rates.lowrank_gflops), nb, n_samples, k,
        ).price
        task = self.rates.task_seconds
        nt = max(1, math.ceil(n / nb))
        pairs = nt * (nt - 1) / 2.0
        triples = nt * (nt - 1) * (nt - 2) / 6.0
        # the tiles the sweep itself cuts for one box on one worker
        _fused, [(_box, tiles)] = sweep_tiles(1, n, n_samples, 1, nb)
        cholesky_tasks = (nt + 2.0 * pairs + triples) * task
        potrf = nt * blas("potrf")
        # Phi/Phi^{-1} work per sweep element; infinite sides are skipped by
        # the fused kernel (roughly half the row work per one-sided entry)
        kernel = blas_rates.qmc_seconds(n, n_samples) * (1.0 - 0.5 * one_sided_fraction)
        tasks = (nt + pairs) * len(tiles) * task
        dense = {
            "factorization": potrf + pairs * (blas("trsm") + blas("syrk"))
            + triples * blas("gemm") + cholesky_tasks,
            "propagation": pairs * blas("sweep_gemm"),
            "kernel": kernel,
            "tasks": tasks,
        }
        tlr = {
            "compression": pairs * (lowrank("compress") + task),
            "factorization": potrf + pairs * (lowrank("lr_trsm") + lowrank("lr_syrk"))
            + triples * lowrank("lr_gemm") + cholesky_tasks,
            "propagation": pairs * blas("lr_sweep_gemm"),
            "kernel": kernel,
            "tasks": tasks,
        }
        for parts in (dense, tlr):
            parts["total"] = float(sum(parts.values()))
        return {"dense": dense, "tlr": tlr}

    # -- planning --------------------------------------------------------------------
    def plan(
        self,
        sigma,
        config,
        query: MVNQuery | None = None,
        *,
        n_samples: int | None = None,
        one_sided_fraction: float | None = None,
        target_error: float | None = None,
        max_samples: int | None = None,
    ) -> QueryPlan:
        """Plan one query (or one homogeneous batch) against ``sigma``.

        Parameters
        ----------
        sigma : array_like (n, n) or repro.core.factor.CholeskyFactor
            The covariance the query runs against, or a pre-computed factor
            of it.  A factor is planned from itself: it carries its
            dimension and its kind, so an ``auto`` plan keeps the factor's
            method (the factorization is already paid) and never probes,
            and an explicit method of another kind raises ``ValueError``.
        config : repro.solver.SolverConfig
            The session configuration (method, sampling defaults, backend).
        query : MVNQuery, optional
            The query; its overrides (``n_samples``, ``target_error``,
            ``max_samples``, one-sidedness) seed the keyword arguments
            below, which may also be given directly (a pipeline aggregates
            them over its stages) and are checked like a query's.
        """
        n_samples, target_error, max_samples = check_schedule(n_samples, target_error, max_samples)
        if isinstance(sigma, CholeskyFactor):
            check_factor_args(config.method, sigma)
            bound, n = sigma.kind, sigma.n
        else:
            sigma = np.asarray(sigma)
            bound, n = None, int(sigma.shape[0])
        if one_sided_fraction is None and query is not None:
            one_sided_fraction = query.one_sided_fraction
        one_sided = float(one_sided_fraction or 0.0)
        requested = config.method
        auto = requested == AUTO_METHOD

        tile = default_tile_size(n, config.tile_size)

        def price(record):
            # at the session's sample size, not the query's: the covariance
            # and the configuration alone fix the method, so every query of
            # a model and every stage of a pipeline ref share one factor
            rank = record["est_rank"] if record else 1
            return self.cost_estimates(n, config.n_samples, tile, rank, one_sided)

        costs = price(None)
        probe = None
        if not auto:
            method = requested
            reason = "explicitly requested"
        elif bound is not None:
            method = bound
            reason = f"pre-bound {bound!r} factor (factorization already paid)"
        else:
            if costs["tlr"]["total"] < costs["dense"]["total"]:
                # TLR at rank 1 beats dense: only the real rank can settle it
                probe = self.probe_structure(sigma, config.accuracy)
                costs = price(probe)
            method = min(("dense", "tlr"), key=lambda name: costs[name]["total"])
            other = "tlr" if method == "dense" else "dense"
            rank = f"probe rank {probe['est_rank']}" if probe else "rank 1, no probe needed"
            reason = (
                f"modelled {method} {costs[method]['total']:.3g} s <= {other} "
                f"{costs[other]['total']:.3g} s (tlr at {rank})"
            )

        parallel = method in PARALLEL_METHODS
        decision = QueryPlan(
            method=method,
            backend=get_backend(config.backend).name if parallel else None,
            n_samples=config.n_samples,
            target_error=None,
            max_samples=config.n_samples,
            auto=auto,
            requested_method=requested,
            reason=reason,
            costs=costs if parallel else {},
            probe=probe,
        )
        return decision.with_schedule(
            query, n_samples=n_samples, target_error=target_error, max_samples=max_samples,
        )

    def plan_pipeline(self, pipeline, config):
        """Cost a whole :class:`repro.query.QueryPipeline` in one decision.

        One structure probe per covariance reference at most, method
        resolution hoisted to the graph level (every stage against a ref
        executes that ref's plan), fused same-Sigma sweeps costed once per
        member while the factorization is costed once per ref.  Returns a
        :class:`repro.query.PipelinePlan`.
        """
        # imported late: repro.query.pipeline builds on this module
        from repro.query.pipeline import build_pipeline_plan

        return build_pipeline_plan(pipeline, config, self)


def plan_query(sigma, config, query: MVNQuery | None = None, **kwargs) -> QueryPlan:
    """Convenience wrapper: plan with a default :class:`QueryPlanner`.

    This is what ``repro plan`` (the CLI) calls; it never factorizes or
    sweeps — planning costs one ``O(PROBE_SIZE^3)`` SVD at most.
    """
    return QueryPlanner().plan(sigma, config, query, **kwargs)
