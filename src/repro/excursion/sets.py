"""Excursion-set variants: negative excursions and uncertainty bands.

The paper works with positive excursion sets ``E+_{u,alpha}`` (regions where
the field exceeds ``u``).  Bolin & Lindgren's framework also defines the
negative excursion set ``E-_{u,alpha}`` (the field stays *below* ``u``) and
the *uncertainty region* between the two, which is often what a decision
maker needs ("where are we sure", "where are we sure it does not", "where do
we not know").  Both reduce to the positive machinery by sign flips, so they
are provided here as thin, well-tested wrappers around
:func:`repro.core.crd.confidence_region`.

The joint analyses (:func:`excursion_analysis`,
:func:`excursion_threshold_sweep`) are expressed as
:class:`repro.query.QueryPipeline` graphs executed on one solver session:
the positive and negative legs — and, in a sweep, every threshold — share
one runtime and one :class:`repro.batch.FactorCache`, so a
constant-variance field factorizes once per excursion sign for the whole
workload instead of once per ``confidence_region`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.crd import ConfidenceRegionResult, confidence_region
from repro.utils.validation import check_probability, ensure_1d

__all__ = [
    "ExcursionAnalysis",
    "negative_confidence_region",
    "excursion_analysis",
    "excursion_threshold_sweep",
]

#: the keyword arguments :func:`repro.core.crd.confidence_region` accepts
#: beyond its positional ones — the boundary contract of every wrapper here
_CRD_KWARGS = (
    "method", "algorithm", "n_samples", "tile_size", "accuracy", "max_rank",
    "runtime", "qmc", "rng", "nugget", "levels", "cache", "backend",
)


def _check_crd_kwargs(kwargs: dict, where: str) -> None:
    """Reject unknown options at the boundary, like ``MVNQuery`` validation.

    A typo'd keyword must raise here — not as a confusing ``TypeError``
    deep inside the sweep after the factorization was already paid.
    """
    unknown = sorted(set(kwargs) - set(_CRD_KWARGS))
    if unknown:
        raise ValueError(
            f"unknown {where} option(s): {', '.join(map(repr, unknown))}; "
            f"valid options are {sorted(_CRD_KWARGS)}"
        )


def negative_confidence_region(sigma, mean, threshold: float, **kwargs) -> ConfidenceRegionResult:
    """Confidence regions for the *negative* excursion set ``{s : X(s) < u}``.

    Uses the identity ``{X < u} = {-X > -u}`` with the negated mean (the
    covariance is symmetric under the sign flip).  The returned
    ``confidence_function`` is the negative-excursion confidence ``F-``.
    """
    _check_crd_kwargs(kwargs, "negative_confidence_region")
    result = confidence_region(sigma, -np.asarray(mean, dtype=np.float64), -float(threshold), **kwargs)
    result.threshold = float(threshold)
    result.details["set_type"] = "negative"
    return result


@dataclass
class ExcursionAnalysis:
    """Joint positive/negative excursion analysis at one confidence level."""

    positive: ConfidenceRegionResult
    negative: ConfidenceRegionResult
    alpha: float
    threshold: float

    @property
    def positive_set(self) -> np.ndarray:
        return self.positive.excursion_set(self.alpha)

    @property
    def negative_set(self) -> np.ndarray:
        return self.negative.excursion_set(self.alpha)

    @property
    def uncertain_set(self) -> np.ndarray:
        """Locations assigned to neither excursion set at this confidence."""
        return ~(self.positive_set | self.negative_set)

    def classification(self) -> np.ndarray:
        """Per-location labels: +1 (above u), -1 (below u), 0 (uncertain)."""
        labels = np.zeros(self.positive.n, dtype=np.int64)
        labels[self.positive_set] = 1
        labels[self.negative_set] = -1
        return labels

    def summary(self) -> dict[str, int]:
        return {
            "above": int(np.count_nonzero(self.positive_set)),
            "below": int(np.count_nonzero(self.negative_set)),
            "uncertain": int(np.count_nonzero(self.uncertain_set)),
        }


def _excursion_session(kwargs: dict):
    """A solver session matching ``confidence_region``'s transient defaults.

    Same :class:`~repro.solver.SolverConfig` the functional wrapper builds,
    but held open across every detection of the pipeline so all legs and
    thresholds share one runtime and one factor cache.
    """
    # imported late: repro.solver builds on the core crd implementation
    from repro.solver import MVNSolver, SolverConfig

    config = SolverConfig(
        method=kwargs.get("method", "dense"),
        n_samples=kwargs.get("n_samples", 10_000),
        tile_size=kwargs.get("tile_size"),
        accuracy=kwargs.get("accuracy", 1e-3),
        max_rank=kwargs.get("max_rank"),
        qmc=kwargs.get("qmc", "richtmyer"),
        backend=kwargs.get("backend"),
    )
    solver_kwargs = {}
    if "cache" in kwargs:
        solver_kwargs["cache"] = kwargs["cache"]
    return MVNSolver(config, runtime=kwargs.get("runtime"), **solver_kwargs)


def excursion_analysis(sigma, mean, threshold: float, alpha: float = 0.05, **kwargs) -> ExcursionAnalysis:
    """Run the positive and negative confidence-region detection together.

    Keyword arguments are forwarded to :func:`repro.core.crd.confidence_region`
    (method, n_samples, tile_size, accuracy, runtime, ...).

    The two legs are expressed as a two-node
    :class:`repro.query.QueryPipeline` executed on **one** solver session,
    so they share a runtime and a :class:`repro.batch.FactorCache` instead
    of factorizing their standardized problems in two independent transient
    solvers; the per-leg results are bit-identical to independent
    :func:`~repro.core.crd.confidence_region` /
    :func:`negative_confidence_region` calls with the same settings.
    """
    alpha = check_probability(alpha, "alpha")
    _check_crd_kwargs(kwargs, "excursion_analysis")
    from repro.query.executors import execute_pipeline
    from repro.query.pipeline import QueryPipeline

    pipeline = QueryPipeline(name="excursion-analysis")
    pipeline.add_sigma("field", sigma, mean=mean)
    node_kwargs = dict(
        algorithm=kwargs.get("algorithm", "prefix"), rng=kwargs.get("rng"),
        nugget=kwargs.get("nugget", 1e-8), levels=kwargs.get("levels"),
    )
    pipeline.add_crd("positive", sigma="field", threshold=threshold, **node_kwargs)
    pipeline.add_crd("negative", sigma="field", threshold=threshold, negate=True,
                     **node_kwargs)
    with _excursion_session(kwargs) as solver:
        out = execute_pipeline(pipeline, solver)
    return ExcursionAnalysis(positive=out["positive"], negative=out["negative"],
                             alpha=alpha, threshold=float(threshold))


def excursion_threshold_sweep(sigma, mean, thresholds, alpha: float = 0.05,
                              **kwargs) -> list[ExcursionAnalysis]:
    """One :func:`excursion_analysis` per threshold, as a single pipeline.

    Builds the threshold-sweep excursion pipeline
    (:meth:`repro.query.QueryPipeline.add_excursion_sweep`) and executes it
    on one solver session: all ``2 * len(thresholds)`` detections share one
    runtime and one factor cache sized for the sweep.  For a
    constant-variance field the detection ordering is threshold-invariant,
    so the whole sweep pays **two** factorizations (one per excursion sign)
    instead of the ``2 * len(thresholds)`` a loop of transient
    ``excursion_analysis`` calls performs — with bit-identical per-threshold
    results.  This is the workload ``benchmarks/bench_pipeline.py`` gates.
    """
    alpha = check_probability(alpha, "alpha")
    _check_crd_kwargs(kwargs, "excursion_threshold_sweep")
    thresholds = ensure_1d(thresholds, "thresholds")
    from repro.query.executors import execute_pipeline
    from repro.query.pipeline import QueryPipeline

    pipeline = QueryPipeline(name="excursion-threshold-sweep")
    pipeline.add_sigma("field", sigma, mean=mean)
    pipeline.add_excursion_sweep(
        "sweep", thresholds, sigma="field", alpha=alpha,
        algorithm=kwargs.get("algorithm", "prefix"), rng=kwargs.get("rng"),
        nugget=kwargs.get("nugget", 1e-8), levels=kwargs.get("levels"),
    )
    session = _excursion_session(kwargs)
    # every distinct standardized problem of the sweep must stay resident:
    # two per threshold in the worst case, plus headroom
    if session._owns_cache:
        session.cache.max_entries = max(session.cache.max_entries,
                                        2 * thresholds.shape[0] + 2)
    with session as solver:
        out = execute_pipeline(pipeline, solver)
    return out["sweep"]
