"""Top-level one-call API.

``mvn_probability`` answers a single box query with any estimator the
registry in :mod:`repro.core.methods` knows; the docstring bullet list and
the ``ValueError`` for unknown names are generated from that registry (as is
``docs/methods.md``), so the three can never drift apart.

Since the solver redesign this function is a thin wrapper over the session
API: it builds a transient :class:`repro.solver.MVNSolver` around the call,
which guarantees the two entry points stay bit-identical.  Code issuing many
queries against one covariance should hold a solver open instead (see
``docs/solver.md``).

``mvn_probability_batch`` (from :mod:`repro.batch`, re-exported here) is the
many-boxes-one-covariance counterpart.
"""

from __future__ import annotations

from repro.core.methods import (
    check_factor_args,
    method_doc_lines,
    method_set_doc,
)
from repro.mvn.result import MVNResult
from repro.runtime import Runtime
from repro.solver import MVNSolver, SolverConfig

__all__ = ["mvn_probability", "mvn_probability_batch"]


def mvn_probability(
    a,
    b,
    sigma,
    method: str = "dense",
    n_samples: int = 10_000,
    mean=0.0,
    n_workers: int = 1,
    tile_size: int | None = None,
    accuracy: float = 1e-3,
    max_rank: int | None = None,
    qmc: str = "richtmyer",
    rng=None,
    runtime: Runtime | None = None,
    factor=None,
    cache=None,
    backend: str | None = None,
    target_error: float | None = None,
    max_samples: int | None = None,
) -> MVNResult:
    """Estimate the MVN probability ``P(a <= X <= b)`` for ``X ~ N(mean, sigma)``.

    Parameters
    ----------
    a, b : array_like (n,)
        Integration limits; use ``-np.inf`` / ``np.inf`` for one-sided boxes.
    sigma : array_like (n, n)
        Covariance matrix.
    method : __METHOD_SET__
__METHOD_LIST__
    n_samples : int
        Monte Carlo / QMC sample size.
    n_workers : int
        Worker threads for the task runtime (ignored by the baselines).
    tile_size, accuracy, max_rank
        Tile/TLR settings for the parallel methods.
    qmc : str
        QMC sequence for the SOV-based methods.
    rng : seed or Generator
        Randomization source.
    runtime : Runtime, optional
        Pre-built runtime (overrides ``n_workers``).
    factor : CholeskyFactor, optional
        Pre-computed factor of ``sigma`` (parallel methods only); skips the
        factorization entirely.
    cache : repro.batch.FactorCache, optional
        Factor cache consulted (and populated) when ``factor`` is not given;
        repeated calls against the same covariance factorize once.
    backend : str, optional
        QMC kernel backend for the factor-based methods (``"numpy"`` or
        ``"reference"``); see :mod:`repro.core.kernel_backend`.
    target_error : float, optional
        Standard-error target for adaptive accuracy: the sweep re-runs with
        escalating sample counts (reusing the factorization) until
        ``result.error <= target_error`` or ``max_samples`` is exhausted;
        the outcome is recorded under ``result.details["plan"]``.  See
        ``docs/query.md``.
    max_samples : int, optional
        Sample budget of the adaptive loop (default: 64x ``n_samples``).

    Notes
    -----
    Every call is normalized into a :class:`repro.query.MVNQuery` and
    planned by :class:`repro.query.QueryPlanner` — ``method="auto"`` lets
    the planner's cost model choose between ``"dense"`` and ``"tlr"``; the
    chosen plan is recorded under ``result.details["plan"]``.
    """
    config = SolverConfig(
        method=method, n_samples=n_samples, tile_size=tile_size,
        accuracy=accuracy, max_rank=max_rank, qmc=qmc, backend=backend,
    )
    check_factor_args(config.method, factor, cache)
    with MVNSolver(config, n_workers=n_workers, runtime=runtime, cache=cache) as solver:
        return solver.model(sigma, mean=mean, factor=factor).probability(
            a, b, rng=rng, target_error=target_error, max_samples=max_samples
        )


# inject the generated method documentation (single source: repro.core.methods);
# under ``python -OO`` docstrings are stripped and there is nothing to inject
if mvn_probability.__doc__ is not None:
    mvn_probability.__doc__ = (
        mvn_probability.__doc__
        .replace("__METHOD_SET__", method_set_doc())
        .replace("__METHOD_LIST__", method_doc_lines())
    )

# re-exported here so `from repro.core.api import mvn_probability_batch` works;
# the implementation lives in repro.batch (imported late to keep the package
# import order acyclic)
from repro.batch import mvn_probability_batch  # noqa: E402
