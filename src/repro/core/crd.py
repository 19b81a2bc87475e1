"""Confidence region detection (Algorithm 1 of the paper).

Given a (posterior) Gaussian field — mean ``mu`` and covariance ``Sigma`` —
a threshold ``u`` and a confidence level ``1 - alpha``, the positive
excursion set with confidence ``1 - alpha`` is the largest region ``D`` such
that ``P(X(s) > u for all s in D) >= 1 - alpha`` (Bolin & Lindgren).  The
algorithm:

1. compute the marginal exceedance probabilities
   ``pM_i = 1 - Phi((u - mu_i) / sqrt(Sigma_ii))``,
2. order the locations by decreasing ``pM``,
3. factor the (reordered, standardized) covariance once,
4. compute the joint probabilities ``F_i = P(X_{c_1} > u, ..., X_{c_i} > u)``
   for every prefix of the ordering — these values, assigned back to the
   locations, are the *confidence function* ``F^+``,
5. the confidence region at level ``1 - alpha`` is ``{s : F^+(s) >= 1 - alpha}``.

Two strategies for step 4 are provided:

* ``algorithm="prefix"`` (default) — one PMVN sweep over the full reordered
  problem with per-row prefix accumulation.  Because the SOV recursion
  processes dimensions sequentially, the running product after row ``i`` is
  an unbiased estimate of the ``i``-dimensional joint probability, so all
  ``n`` values come out of a single sweep.
* ``algorithm="sequential"`` — the paper-faithful loop that calls PMVN once
  per prefix with ``-inf`` lower limits outside the prefix.  Cost is ``n``
  times higher; it is kept as the reference the prefix sweep is validated
  against and for computing a handful of specific levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.factor import CholeskyFactor, factorize
from repro.core.pmvn import PMVNOptions, pmvn_integrate, pmvn_integrate_batch
from repro.runtime import Runtime
from repro.stats.normal import norm_cdf
from repro.tile.layout import tile_ranges
from repro.utils.timers import timed
from repro.utils.validation import check_probability, ensure_1d

__all__ = [
    "ConfidenceRegionResult",
    "marginal_exceedance",
    "prefix_boxes",
    "confidence_region",
    "confidence_region_from_posterior",
]


def marginal_exceedance(mean: np.ndarray, variance: np.ndarray, threshold: float) -> np.ndarray:
    """Marginal exceedance probabilities ``P(X_i > u)`` (lines 3-5 of Algorithm 1)."""
    mean = ensure_1d(mean, "mean")
    variance = ensure_1d(variance, "variance")
    if mean.shape != variance.shape:
        raise ValueError("mean and variance must have the same length")
    if np.any(variance <= 0):
        raise ValueError("variances must be strictly positive")
    return 1.0 - norm_cdf((threshold - mean) / np.sqrt(variance))


def prefix_boxes(a, sizes=None) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The prefix boxes of Algorithm 1's sequential form: ``(sizes, boxes)``.

    The box of prefix size ``k`` keeps the first ``k`` lower limits of ``a``
    and opens the rest to ``-inf``; every upper limit is ``+inf``.
    ``sizes`` defaults to every prefix ``1..n``; given sizes are clipped to
    ``[1, n]``, de-duplicated and sorted.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    n = a.shape[0]
    if sizes is None:
        sizes = np.arange(1, n + 1)
    else:
        sizes = np.unique(np.clip(np.asarray(sizes, dtype=int), 1, n))
    upper = np.full(n, np.inf)
    boxes = []
    for size in sizes:
        lower = np.full(n, -np.inf)
        lower[:size] = a[:size]
        boxes.append((lower, upper))
    return sizes, boxes


@dataclass
class ConfidenceRegionResult:
    """Output of the confidence region detection algorithm.

    Attributes
    ----------
    confidence_function : ndarray (n,)
        ``F^+(s_i)``: the largest confidence level at which location ``i``
        belongs to the excursion set.
    marginal_probabilities : ndarray (n,)
        Marginal exceedance probabilities ``P(X_i > u)``.
    order : ndarray (n,) of int
        Location indices sorted by decreasing marginal probability (the order
        in which the joint probabilities were accumulated).
    threshold : float
        The threshold ``u``.
    method : str
        ``"dense"`` or ``"tlr"``.
    details : dict
        Prefix errors, factor metadata, timings.
    """

    confidence_function: np.ndarray
    marginal_probabilities: np.ndarray
    order: np.ndarray
    threshold: float
    method: str = "dense"
    details: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.confidence_function.shape[0]

    def excursion_set(self, alpha: float) -> np.ndarray:
        """Boolean mask of the confidence region at level ``1 - alpha``."""
        alpha = check_probability(alpha, "alpha")
        return self.confidence_function >= (1.0 - alpha)

    def excursion_indices(self, alpha: float) -> np.ndarray:
        """Indices of the locations inside the confidence region at level ``1 - alpha``."""
        return np.flatnonzero(self.excursion_set(alpha))

    def region_size(self, alpha: float) -> int:
        return int(np.count_nonzero(self.excursion_set(alpha)))


#: edge of the block pairs :func:`_standardized_problem` scales and
#: symmetrizes in place (a pair and its scratch stay cache-resident)
_STANDARDIZE_BLOCK = 128


def _standardized_problem(sigma: np.ndarray, mean: np.ndarray, threshold: float, order: np.ndarray):
    """Reorder and standardize: correlation matrix + standardized limits.

    Entry ``(i, j)`` of the reordered correlation matrix is
    ``0.5 * (c[p, q] + c[q, p])`` with ``c[p, q] = sigma[p, q] / (std[p] *
    std[q])``, ``p = order[i]`` and ``q = order[j]``, and a unit diagonal.
    The one ``n x n`` array is the gather ``sigma[np.ix_(order, order)]``; it is
    then scaled and symmetrized in place, block pair by block pair, with the
    same operations in the same order as the whole-matrix formula, so the
    result is bit-identical to it even for a slightly asymmetric ``sigma``.
    """
    std = np.sqrt(np.diag(sigma))
    std_ord = std[order]
    corr_ord = sigma[np.ix_(order, order)]
    n = corr_ord.shape[0]
    blocks = tile_ranges(n, _STANDARDIZE_BLOCK)
    scale = np.empty((blocks[0][1], blocks[0][1]))
    for idx, (r0, r1) in enumerate(blocks):
        for c0, c1 in blocks[idx:]:
            upper = corr_ord[r0:r1, c0:c1]
            lower = corr_ord[c0:c1, r0:r1]
            outer = np.multiply(std_ord[r0:r1, None], std_ord[None, c0:c1], out=scale[:r1 - r0, :c1 - c0])
            np.divide(upper, outer, out=upper)
            if c0 == r0:
                # a diagonal block is its own mirror: sum through the scratch
                np.add(upper, upper.T, out=outer)
                np.multiply(outer, 0.5, out=upper)
                continue
            np.divide(lower, outer.T, out=lower)
            np.add(upper, lower.T, out=upper)
            np.multiply(upper, 0.5, out=upper)
            lower[...] = upper.T
    np.fill_diagonal(corr_ord, 1.0)
    a_std = (threshold - mean[order]) / std_ord
    return corr_ord, a_std


def confidence_region(
    sigma,
    mean,
    threshold: float,
    method: str = "dense",
    algorithm: str = "prefix",
    n_samples: int = 10_000,
    tile_size: int | None = None,
    accuracy: float = 1e-3,
    max_rank: int | None = None,
    runtime: Runtime | None = None,
    qmc: str = "richtmyer",
    rng=None,
    nugget: float = 1e-8,
    levels: np.ndarray | None = None,
    cache=None,
    backend: str | None = None,
) -> ConfidenceRegionResult:
    """Run Algorithm 1 on a Gaussian field ``N(mean, sigma)``.

    Parameters
    ----------
    sigma : ndarray (n, n)
        (Posterior) covariance matrix.
    mean : ndarray (n,) or float
        (Posterior) mean.
    threshold : float
        Excursion threshold ``u``.
    method : {"dense", "tlr"}
        Linear algebra backend for the Cholesky factorization.
    algorithm : {"prefix", "sequential"}
        Joint-probability strategy (see the module docstring).
    n_samples : int
        QMC sample size for the MVN estimates.
    accuracy, max_rank
        TLR compression settings (ignored for ``method="dense"``).
    nugget : float
        Diagonal regularization added to the standardized correlation matrix
        before factorization.
    levels : ndarray, optional
        For ``algorithm="sequential"`` only: prefix sizes to evaluate
        explicitly (defaults to all prefixes, which is expensive).
    cache : repro.batch.FactorCache, optional
        Factor cache for the standardized correlation matrix; repeated
        detections against the same field (e.g. sweeping thresholds)
        factorize once.
    backend : str, optional
        QMC kernel backend for the PMVN sweeps (see
        :mod:`repro.core.kernel_backend`).

    Notes
    -----
    This is a thin wrapper over the session API — it builds a transient
    :class:`repro.solver.MVNSolver` around one detection.  Sweeping
    thresholds or fields should hold a solver open and call
    :meth:`repro.solver.Model.confidence_region` so the runtime and factor
    cache persist between detections (see ``docs/solver.md``).
    """
    # imported late: repro.solver builds on this module's implementation
    from repro.solver import MVNSolver, SolverConfig

    config = SolverConfig(
        method=method, n_samples=n_samples, tile_size=tile_size,
        accuracy=accuracy, max_rank=max_rank, qmc=qmc, backend=backend,
    )
    with MVNSolver(config, runtime=runtime, cache=cache) as solver:
        return solver.model(sigma, mean=mean).confidence_region(
            threshold, algorithm=algorithm, rng=rng, nugget=nugget, levels=levels,
        )


def _confidence_region_impl(
    sigma,
    mean,
    threshold: float,
    options: PMVNOptions,
    method: str = "dense",
    algorithm: str = "prefix",
    tile_size: int | None = None,
    accuracy: float = 1e-3,
    max_rank: int | None = None,
    runtime: Runtime | None = None,
    nugget: float = 1e-8,
    levels: np.ndarray | None = None,
    cache=None,
    std_memo: dict | None = None,
) -> ConfidenceRegionResult:
    """Algorithm 1 proper, run by :meth:`repro.solver.Model.confidence_region`.

    ``options`` are the model's sweep options (sample size, QMC sequence
    and seed, kernel backend, pooled sweep buffers), built
    where a query's are; the prefix sweep adds ``return_prefix`` to them.
    ``sigma`` must already have passed
    :func:`~repro.utils.validation.check_covariance`: a
    :class:`~repro.solver.solver.Model` checks its covariance once, not once
    per detection.  The reordered correlation matrix is still checked on
    every detection, by :func:`~repro.core.factor.factorize` (or skipped
    with it on a factor-cache hit).

    ``std_memo`` (a mutable dict owned by the caller) keeps the latest
    reordered correlation matrix under its ``(ordering, nugget)``: the
    matrix depends on the detection ordering but *not* on the threshold, so
    a threshold sweep whose ordering is threshold-invariant rebuilds it once
    instead of per detection, and a sweep whose ordering moves with the
    threshold holds one matrix, not one per threshold.  Because the same
    array object is handed back to the factor cache, the cache's
    identity-memoized fingerprint skips the ``O(n^2)`` content hash as well.
    The memoized matrix is never mutated (the factorization paths copy), so
    the reuse is bit-identical.
    """
    sigma = np.ascontiguousarray(sigma, dtype=np.float64)
    n = sigma.shape[0]
    mu = np.broadcast_to(mean, n)  # the model checked it (check_mean)
    threshold = float(threshold)

    with timed("marginals"):
        p_marginal = marginal_exceedance(mu, np.diag(sigma), threshold)
        order = np.argsort(-p_marginal, kind="stable")

    with timed("standardize"):
        memo_key = (order.tobytes(), float(nugget)) if std_memo is not None else None
        corr_ord = std_memo.get(memo_key) if std_memo is not None else None
        if corr_ord is None:
            corr_ord, a_std = _standardized_problem(sigma, mu, threshold, order)
            if nugget:
                corr_ord[np.diag_indices_from(corr_ord)] += nugget
            if std_memo is not None:
                std_memo.clear()
                std_memo[memo_key] = corr_ord
        else:
            # same formula as _standardized_problem, only the O(n) part —
            # the limits depend on the threshold, the matrix does not
            std = np.sqrt(np.diag(sigma))
            a_std = (threshold - mu[order]) / std[order]

    with timed("factorize"):
        # the covariance is factorized exactly once per detection; with a
        # cache, repeated detections against the same field reuse the factor
        build = cache.get_or_factorize if cache is not None else factorize
        factor = build(
            corr_ord,
            method=method,
            tile_size=tile_size,
            accuracy=accuracy,
            max_rank=max_rank,
            runtime=runtime,
        )

    if algorithm == "prefix":
        prefix_prob, prefix_err = _prefix_joint_probabilities(factor, a_std, options, runtime)
    elif algorithm == "sequential":
        prefix_prob, prefix_err = _sequential_joint_probabilities(
            factor, a_std, options, runtime, levels
        )
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; use 'prefix' or 'sequential'")

    # The exact joint probabilities are non-increasing in the prefix size;
    # enforce monotonicity on the MC estimates before building F+.
    monotone = np.minimum.accumulate(prefix_prob)
    confidence_function = np.empty(n)
    confidence_function[order] = monotone

    return ConfidenceRegionResult(
        confidence_function=confidence_function,
        marginal_probabilities=p_marginal,
        order=order,
        threshold=threshold,
        method=method,
        details={
            "prefix_probabilities": prefix_prob,
            "prefix_errors": prefix_err,
            "n_samples": options.n_samples,
            "algorithm": algorithm,
            "tile_size": factor.tile_size,
            "tlr_accuracy": accuracy if method == "tlr" else None,
        },
    )


def _prefix_joint_probabilities(
    factor: CholeskyFactor,
    a_std: np.ndarray,
    options: PMVNOptions,
    runtime: Runtime | None,
) -> tuple[np.ndarray, np.ndarray]:
    """All prefix joint probabilities from a single PMVN sweep."""
    b = np.full(factor.n, np.inf)
    with timed("pmvn_sweep"):
        result = pmvn_integrate(a_std, b, factor, replace(options, return_prefix=True), runtime=runtime)
    return result.details["prefix_probabilities"], result.details["prefix_errors"]


def _sequential_joint_probabilities(
    factor: CholeskyFactor,
    a_std: np.ndarray,
    options: PMVNOptions,
    runtime: Runtime | None,
    levels: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Paper-faithful prefix boxes, swept as one batch on the shared factor.

    The :func:`prefix_boxes` of ``levels`` (``-inf`` lower limits outside
    the prefix) go through a single
    :func:`~repro.core.pmvn.pmvn_integrate_batch` call, whose per-chain
    arithmetic equals one ``pmvn_integrate`` call per prefix with the same
    options, so every probability does too.

    Prefix sizes not in ``levels`` are filled by linear interpolation of the
    evaluated ones so the confidence function is defined everywhere.
    """
    n = factor.n
    sizes, boxes = prefix_boxes(a_std, levels)
    with timed("pmvn_sequential"):
        results = pmvn_integrate_batch(boxes, factor, options, runtime=runtime)
    prob_at = np.array([result.probability for result in results])
    err_at = np.array([result.error for result in results])
    all_sizes = np.arange(1, n + 1)
    prefix_prob = np.interp(all_sizes, sizes, prob_at)
    prefix_err = np.interp(all_sizes, sizes, err_at)
    return prefix_prob, prefix_err


def confidence_region_from_posterior(
    posterior,
    threshold: float,
    **kwargs,
) -> ConfidenceRegionResult:
    """Convenience wrapper taking a :class:`repro.stats.posterior.PosteriorResult`."""
    return confidence_region(posterior.covariance, posterior.mean, threshold, **kwargs)
