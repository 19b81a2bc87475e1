"""The cost-model planner: ``(MVNQuery, covariance, config)`` -> ``QueryPlan``.

The planner separates *what* a query asks (:class:`~repro.query.spec.MVNQuery`)
from *how* it runs, the same spec-then-plan split scheduler-style systems use.
Its output is an explicit, inspectable :class:`QueryPlan`:

* the **estimator** — for ``method="auto"`` a small cost model over the
  dimension ``n``, the box one-sidedness and the covariance structure picks
  ``"dense"`` or ``"tlr"``: dense at or below :attr:`QueryPlanner.dense_max_n`
  (factorization is cheap, compression overhead is not worth paying), dense
  up to :attr:`QueryPlanner.tlr_min_n` (mid-size problems: per-tile
  SVD/recompression overhead still beats the compression payoff), and TLR
  above that when a one-off **structure probe** (truncated SVD of an
  adjacent off-diagonal block, mirroring the TLR tile-truncation rule)
  finds the off-diagonal tiles compressible
  (:attr:`QueryPlanner.max_rank_ratio`); the relative flop estimates of
  both candidates ride along in :attr:`QueryPlan.costs` for inspection;
* the **kernel backend**, resolved to the concrete backend the sweep will
  dispatch to (``None`` / ``$REPRO_KERNEL_BACKEND`` / ``"auto"`` collapse to
  a real name);
* the **adaptive-accuracy schedule** — the initial sample count, the error
  target and the sample budget of the escalation loop
  (:func:`next_sample_count` computes each refinement step).

Planning is deterministic in ``(sigma, config, n_samples)``: the same query
plans identically whether it arrives through the functional API, a
:class:`repro.solver.Model`, the batched API or a serving shard — which is
what lets the broker use the plan in its batch key.  One-sidedness enters
the modelled *costs* (the fused kernel skips infinite sides) but adds the
same term to every candidate, so the method choice is sidedness-invariant —
a query cannot change estimator (and thus answer) depending on which batch
or shard it lands in.

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
from dataclasses import dataclass, field

import numpy as np

from repro.core.factor import default_tile_size
from repro.core.kernel_backend import get_backend
from repro.core.methods import AUTO_METHOD, PARALLEL_METHODS
from repro.query.spec import MVNQuery

__all__ = [
    "QueryPlan",
    "QueryPlanner",
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

# relative per-flop weights of the modelled phases.  These are deliberately
# coarse (pure-Python task overhead dwarfs micro-architecture effects); what
# matters is the dense-vs-TLR *ordering* they induce, which the planner
# benchmark (benchmarks/bench_planner.py) gates against measured wall time.
_CHOL_WEIGHT = 1.0          # dense tiled Cholesky flops
_COMPRESS_WEIGHT = 8.0      # SVD flops per compressed tile (QR+SVD constants)
_TLR_CHOL_WEIGHT = 3.0      # TLR Cholesky flops (rank-structured updates)
_GEMM_WEIGHT = 1.0          # limit-propagation GEMM flops
_KERNEL_WEIGHT = 12.0       # Phi / Phi^{-1} evaluations per sweep element
_TASK_OVERHEAD = 40_000.0   # flop-equivalent cost of one runtime task


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
        One line explaining the decision (probe verdict, threshold hit,
        bound factor, ...).
    costs : dict
        Modelled cost breakdown per candidate method
        (``{"dense": {"factorization": ..., "total": ...}, "tlr": ...}``),
        in relative flop-equivalent units.
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
            lines.append("cost estimates (relative units):")
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
    dense_max_n : int
        Dimension at or below which ``method="auto"`` always picks
        ``"dense"`` (compression overhead cannot pay off); no probe runs.
    tlr_min_n : int
        Dimension below which mid-size problems still plan ``"dense"``
        even when compressible: the per-tile SVD and recompression
        overhead of the TLR path only amortizes above this size (measured
        by ``benchmarks/bench_planner.py``).
    max_rank_ratio : float
        Probe verdict threshold: TLR is only planned when the estimated
        off-diagonal rank is at most this fraction of the probe block.
    probe_size : int
        Side length of the off-diagonal block the structure probe
        decomposes (capped at ``n // 2``).
    """

    dense_max_n: int = 512
    tlr_min_n: int = 1024
    max_rank_ratio: float = 0.45
    probe_size: int = 96

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
        m = max(2, min(int(self.probe_size), n // 2))
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

    def inherit_probe(self, probe: dict | None, rank: int, downdate: bool) -> dict | None:
        """Decide whether a structure-probe record survives a rank-k update.

        ``Sigma + U U^T`` can raise every off-diagonal block's rank by at
        most ``rank``, so an update *inherits* the parent's probe with the
        estimate bumped by ``rank`` — unless the bump crosses the
        :attr:`max_rank_ratio` verdict boundary, in which case the record
        is *invalidated* (``None``: a fresh probe would be needed to plan
        against the child covariance from scratch).  A downdate can only
        lower ranks, so it inherits the record unchanged (still a valid
        upper bound).
        """
        if probe is None:
            return None
        if downdate:
            return probe
        bumped = int(probe["est_rank"]) + int(rank)
        block = int(probe["block"])
        new_ratio = bumped / float(block)
        same_verdict = (new_ratio <= self.max_rank_ratio) == (
            probe["rank_ratio"] <= self.max_rank_ratio
        )
        if not same_verdict:
            return None
        return {**probe, "est_rank": min(bumped, block), "rank_ratio": new_ratio}

    # -- cost model ------------------------------------------------------------------
    def cost_estimates(self, n: int, n_samples: int, tile_size: int,
                       est_rank: int, one_sided_fraction: float = 0.0) -> dict:
        """Modelled cost breakdown for the ``dense`` and ``tlr`` candidates.

        Relative flop-equivalent units; the kernel term is shared by both
        candidates (same sweep, same backend) so one-sidedness shifts the
        totals but never the ordering.
        """
        nb = max(1, math.ceil(n / tile_size))
        offdiag_tiles = nb * (nb - 1) / 2.0
        rank = max(1, min(est_rank, tile_size))
        # Phi/Phi^{-1} work per sweep element; infinite sides are skipped by
        # the fused kernel (roughly half the row work per one-sided entry)
        kernel = _KERNEL_WEIGHT * n * n_samples * (1.0 - 0.5 * one_sided_fraction)
        tasks = _TASK_OVERHEAD * (nb + offdiag_tiles) * max(1, math.ceil(n_samples / 512))
        dense = {
            "factorization": _CHOL_WEIGHT * n**3 / 3.0,
            "propagation": _GEMM_WEIGHT * offdiag_tiles * 2.0 * tile_size**2 * n_samples,
            "kernel": kernel,
            "tasks": tasks,
        }
        tlr = {
            "compression": _COMPRESS_WEIGHT * offdiag_tiles * tile_size**3,
            "factorization": _TLR_CHOL_WEIGHT * (n * tile_size**2 + offdiag_tiles * tile_size * rank**2),
            "propagation": _GEMM_WEIGHT * offdiag_tiles * 4.0 * tile_size * rank * n_samples,
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
        bound_method: str | None = None,
        probe: dict | None = None,
        n: int | None = None,
    ) -> QueryPlan:
        """Plan one query (or one homogeneous batch) against ``sigma``.

        Parameters
        ----------
        sigma : array_like (n, n) or None
            The covariance the query runs against.  May be ``None`` when
            ``n`` is given and the plan will never need to probe — the
            lazy-sigma path of updated models
            (:meth:`repro.solver.Model.update`), whose covariance is only
            assembled on demand.
        config : repro.solver.SolverConfig
            The session configuration (method, sampling defaults, backend).
        query : MVNQuery, optional
            The query; its overrides (``n_samples``, ``target_error``,
            ``max_samples``, one-sidedness) seed the keyword arguments
            below, which may also be given directly (the batched path
            aggregates them over many boxes).
        bound_method : str, optional
            Method of a pre-bound factor: an ``auto`` plan honours it
            instead of probing (the factorization is already paid).
        probe : dict, optional
            A previously computed :meth:`probe_structure` record (models
            memoize it so repeated queries plan without re-probing).
        n : int, optional
            The problem dimension, required iff ``sigma`` is ``None``.
        """
        if sigma is None:
            if n is None:
                raise ValueError("plan() needs either sigma or n")
            n = int(n)
        else:
            sigma = np.asarray(sigma)
            n = int(sigma.shape[0])
        if query is not None:
            n_samples = query.n_samples if n_samples is None else n_samples
            one_sided_fraction = (
                query.one_sided_fraction if one_sided_fraction is None else one_sided_fraction
            )
            target_error = query.target_error if target_error is None else target_error
            max_samples = query.max_samples if max_samples is None else max_samples
        n_samples = int(config.n_samples if n_samples is None else n_samples)
        one_sided = float(one_sided_fraction or 0.0)
        requested = config.method
        auto = requested == AUTO_METHOD

        tile = default_tile_size(n, config.tile_size)
        probe_record = probe
        if (auto and bound_method is None and n > self.dense_max_n
                and probe_record is None and sigma is not None):
            probe_record = self.probe_structure(sigma, config.accuracy)
        est_rank = probe_record["est_rank"] if probe_record else tile
        costs = self.cost_estimates(n, n_samples, tile, est_rank, one_sided)

        if not auto:
            method = requested
            reason = "explicitly requested"
        elif bound_method is not None:
            method = bound_method
            reason = f"pre-bound {bound_method!r} factor (factorization already paid)"
        elif n <= self.dense_max_n:
            method = "dense"
            reason = (
                f"n={n} <= dense_max_n={self.dense_max_n}: dense factorization "
                "is cheap and compression overhead cannot pay off"
            )
        else:
            ratio = probe_record["rank_ratio"] if probe_record else 1.0
            if ratio > self.max_rank_ratio:
                method = "dense"
                reason = (
                    f"probe rank ratio {ratio:.2f} > {self.max_rank_ratio}: "
                    "off-diagonal tiles are barely compressible, TLR cannot win"
                )
            elif n < self.tlr_min_n:
                method = "dense"
                reason = (
                    f"dense_max_n={self.dense_max_n} < n={n} < tlr_min_n="
                    f"{self.tlr_min_n}: compressible (rank ratio {ratio:.2f}) "
                    "but per-tile SVD/recompression overhead still beats the "
                    "payoff at this size"
                )
            else:
                method = "tlr"
                reason = (
                    f"n={n} >= tlr_min_n={self.tlr_min_n} and probe rank ratio "
                    f"{ratio:.2f} <= {self.max_rank_ratio}: compression pays "
                    f"(modelled {costs['tlr']['total']:.3g} vs dense "
                    f"{costs['dense']['total']:.3g})"
                )

        backend = get_backend(config.backend).name if method in PARALLEL_METHODS else None
        if target_error is not None and max_samples is None:
            max_samples = DEFAULT_BUDGET_MULTIPLIER * n_samples
        if target_error is None:
            max_samples = n_samples
        return QueryPlan(
            method=method,
            backend=backend,
            n_samples=n_samples,
            target_error=target_error,
            max_samples=int(max_samples),
            auto=auto,
            requested_method=requested,
            reason=reason,
            costs=costs if method in PARALLEL_METHODS else {},
            probe=probe_record,
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
    sweeps — planning costs one ``O(probe_size^3)`` SVD at most.
    """
    return QueryPlanner().plan(sigma, config, query, **kwargs)
