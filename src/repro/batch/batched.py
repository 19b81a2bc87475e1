"""Batched MVN probability evaluation.

:func:`mvn_probability_batch` answers many box queries ``P(a_i <= X <= b_i)``
against *one* covariance in a single call.  For the factor-based methods
(``"dense"``, ``"tlr"``) the covariance is factorized once — optionally
through a :class:`~repro.batch.cache.FactorCache` shared across calls — and
all boxes run through one task-graph submission with their chain blocks
interleaved (see :func:`repro.core.pmvn.pmvn_integrate_batch`).  The
baseline methods fall back to a plain loop so the batched API covers every
``method=`` string of :func:`repro.core.api.mvn_probability`.

The estimates match a loop of single calls with the same seed; batching
changes the schedule and the setup cost, not the estimator.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.batch.cache import FactorCache
from repro.core.factor import CholeskyFactor
from repro.core.methods import check_factor_args
from repro.mvn.result import MVNResult
from repro.runtime import Runtime

__all__ = ["mvn_probability_batch", "boxes_from_arrays", "load_boxes"]


def boxes_from_arrays(lower, upper) -> list[tuple[np.ndarray, np.ndarray]]:
    """Zip ``(n_boxes, n)`` lower/upper arrays into a list of ``(a, b)`` boxes.

    >>> import numpy as np
    >>> boxes = boxes_from_arrays(np.zeros((3, 2)), np.ones((3, 2)))
    >>> len(boxes), boxes[0][1].tolist()
    (3, [1.0, 1.0])
    """
    lower = np.atleast_2d(np.asarray(lower, dtype=np.float64))
    upper = np.atleast_2d(np.asarray(upper, dtype=np.float64))
    if lower.shape != upper.shape:
        raise ValueError(
            f"lower and upper must have matching shapes, got {lower.shape} vs {upper.shape}"
        )
    return [(lower[i], upper[i]) for i in range(lower.shape[0])]


def load_boxes(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read a box file into a list of ``(a, b)`` pairs.

    Supported formats:

    * ``.npz`` with ``lower`` / ``upper`` arrays of shape ``(n_boxes, n)``
      (the keys ``a`` / ``b`` are accepted as synonyms),
    * ``.npy`` with an array of shape ``(n_boxes, 2, n)``,
    * plain text: one box per line, the ``n`` lower limits followed by the
      ``n`` upper limits (``inf`` / ``-inf`` spelled out).
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".npz":
        data = np.load(path)
        keys = set(data.files)
        if {"lower", "upper"} <= keys:
            return boxes_from_arrays(data["lower"], data["upper"])
        if {"a", "b"} <= keys:
            return boxes_from_arrays(data["a"], data["b"])
        raise ValueError(
            f"{path} must contain 'lower'/'upper' (or 'a'/'b') arrays, found {sorted(keys)}"
        )
    if suffix == ".npy":
        stacked = np.load(path)
        if stacked.ndim != 3 or stacked.shape[1] != 2:
            raise ValueError(
                f"{path} must hold an (n_boxes, 2, n) array, got shape {stacked.shape}"
            )
        return boxes_from_arrays(stacked[:, 0, :], stacked[:, 1, :])
    rows = np.atleast_2d(np.loadtxt(path, dtype=np.float64))
    if rows.shape[1] % 2:
        raise ValueError(
            f"each line of {path} must hold 2*n numbers (lower then upper limits), "
            f"got {rows.shape[1]} columns"
        )
    n = rows.shape[1] // 2
    return boxes_from_arrays(rows[:, :n], rows[:, n:])


def mvn_probability_batch(
    boxes,
    sigma,
    method: str = "dense",
    n_samples: int = 10_000,
    means=None,
    n_workers: int = 1,
    tile_size: int | None = None,
    accuracy: float = 1e-3,
    max_rank: int | None = None,
    qmc: str = "richtmyer",
    rng=None,
    runtime: Runtime | None = None,
    factor: CholeskyFactor | None = None,
    cache: FactorCache | None = None,
    backend: str | None = None,
    target_error: float | None = None,
    max_samples: int | None = None,
) -> list[MVNResult]:
    """Estimate ``P(a_i <= X <= b_i)`` for many boxes against one covariance.

    Parameters
    ----------
    boxes : sequence of (a, b) pairs
        Integration limits per box (see :func:`boxes_from_arrays` /
        :func:`load_boxes` for array and file inputs).
    sigma : array_like (n, n)
        The shared covariance matrix.
    method : str
        Any ``method=`` accepted by :func:`repro.core.api.mvn_probability`;
        ``"dense"`` and ``"tlr"`` use the factorize-once batched fast path,
        the baselines loop over the boxes.
    means : optional
        ``None`` (zero mean), a scalar or length-``n`` vector shared by
        every box, ``n_boxes`` per-box scalars, or per-box vectors as an
        ``(n_boxes, n)`` array.  A flat sequence whose length is both ``n``
        and ``n_boxes`` is ambiguous and rejected.
    factor : CholeskyFactor, optional
        A pre-computed factor of ``sigma``; skips factorization entirely.
    cache : FactorCache, optional
        Factor cache consulted (and populated) when ``factor`` is not given.
    backend : str, optional
        QMC kernel backend (see :mod:`repro.core.kernel_backend`).
    target_error, max_samples : optional
        Per-box adaptive accuracy targeting: boxes whose standard error
        misses ``target_error`` are re-swept at escalating sample counts
        within the ``max_samples`` budget (see ``docs/query.md``).
    n_samples, n_workers, tile_size, accuracy, max_rank, qmc, rng, runtime
        As in :func:`repro.core.api.mvn_probability` (``method="auto"``
        delegates the estimator choice to the query planner).

    Returns
    -------
    list of MVNResult
        One result per box, in input order.  Each carries
        ``details["batch_index"]`` and ``details["batch_size"]``.

    Notes
    -----
    This is a thin wrapper over the session API: it builds a transient
    :class:`repro.solver.MVNSolver` around the call.  Workloads issuing many
    batches against the same covariance should hold a solver (and its factor
    cache) open instead — see ``docs/solver.md``.
    """
    # imported late: repro.solver imports this package (its factor cache)
    from repro.solver import MVNSolver, SolverConfig

    config = SolverConfig(
        method=method, n_samples=n_samples, tile_size=tile_size,
        accuracy=accuracy, max_rank=max_rank, qmc=qmc, backend=backend,
    )
    check_factor_args(config.method, factor, cache)
    with MVNSolver(config, n_workers=n_workers, runtime=runtime, cache=cache) as solver:
        return solver.model(sigma, factor=factor).probability_batch(
            boxes, means=means, rng=rng,
            target_error=target_error, max_samples=max_samples,
        )
