"""Input validation helpers used across the library.

Every public entry point of the library validates its inputs through these
functions so that error messages are consistent and informative.  Each
caller input has one rule, run where the input enters (``docs/query.md``
tabulates which rule runs where): :func:`check_limits`, :func:`check_mean`,
:func:`check_count` (with :func:`check_schedule` for a query's sample
schedule) and :func:`check_square`.  All functions either return a
canonicalized value (arrays C-contiguous ``float64`` unless stated
otherwise) or raise ``ValueError`` / ``TypeError``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ensure_1d",
    "ensure_2d",
    "check_square",
    "check_symmetric",
    "check_covariance",
    "check_limits",
    "check_mean",
    "check_count",
    "check_schedule",
    "check_positive_int",
    "check_probability",
    "check_accuracy",
]


def ensure_1d(x, name: str = "array", dtype=np.float64) -> np.ndarray:
    """Return ``x`` as a 1-D contiguous array of ``dtype``.

    Parameters
    ----------
    x : array_like
        Input vector.
    name : str
        Name used in error messages.
    dtype : numpy dtype
        Target dtype.
    """
    arr = np.ascontiguousarray(x, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def ensure_2d(x, name: str = "matrix", dtype=np.float64) -> np.ndarray:
    """Return ``x`` as a 2-D contiguous array of ``dtype``."""
    arr = np.ascontiguousarray(x, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    return arr


def check_square(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is a square 2-D matrix and return it as float64."""
    arr = ensure_2d(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


#: relative symmetry tolerance of :func:`check_symmetric` and
#: :func:`check_covariance`
_SYMMETRY_TOL = 1e-8

#: edge of the square blocks the symmetry check compares pairwise; a block
#: pair and its scratch stay cache-resident, so the check streams the matrix
#: once instead of building ``n x n`` temporaries
_SYMMETRY_BLOCK = 128


def _asymmetric_pair(x: np.ndarray, y: np.ndarray, atol: float, scratch: np.ndarray) -> bool:
    """Whether ``x`` and ``y.T`` (one block pair) break ``np.allclose(..., rtol=0)``.

    Finite entries are close when ``|x - y| <= atol``; an infinite entry
    only equals itself, and NaN equals nothing.  The pair verdict is
    symmetric in ``x`` and ``y``, so each pair of blocks is compared once.
    """
    diff = np.subtract(x, y.T, out=scratch)
    np.abs(diff, out=diff)
    peak = float(diff.max())
    if np.isfinite(peak):
        # every entry of the pair is finite: one comparison decides
        return peak > atol
    # an infinite or NaN entry (or an overflowing difference): elementwise
    close = (np.isfinite(x) & np.isfinite(y.T) & (diff <= atol)) | (x == y.T)
    return not close.all()


def _symmetric_peak(arr: np.ndarray, name: str, tol: float) -> float:
    """Check symmetry of a square ``arr``; return ``max |arr|`` (NaN if any NaN).

    The verdict is ``np.allclose(arr, arr.T, atol=tol * max(1, max|arr|),
    rtol=0)``, evaluated block pair by block pair in cache-sized scratch.
    """
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty, got shape {arr.shape}")
    # max(max, -min) is max|arr| without an n x n temporary; NaN propagates
    # through both reductions, and max(1.0, nan) is 1.0 as before
    peak = max(float(arr.max()), -float(arr.min()))
    atol = tol * max(1.0, peak)
    n = arr.shape[0]
    step = _SYMMETRY_BLOCK
    scratch = np.empty((min(step, n), min(step, n)))
    with np.errstate(invalid="ignore", over="ignore"):
        for r0 in range(0, n, step):
            r1 = min(r0 + step, n)
            for c0 in range(r0, n, step):
                c1 = min(c0 + step, n)
                if _asymmetric_pair(arr[r0:r1, c0:c1], arr[c0:c1, r0:r1], atol,
                                    scratch[:r1 - r0, :c1 - c0]):
                    raise ValueError(f"{name} must be symmetric (tolerance {tol})")
    return peak


def check_symmetric(a, name: str = "matrix", tol: float = _SYMMETRY_TOL) -> np.ndarray:
    """Validate that ``a`` is symmetric up to relative tolerance ``tol``.

    The tolerance is absolute, ``tol * max(1, max |a|)``: the verdict of
    ``np.allclose(a, a.T, atol=tol * max(1, max|a|), rtol=0)``, without its
    ``n x n`` temporaries.
    """
    arr = check_square(a, name)
    _symmetric_peak(arr, name, tol)
    return arr


def check_covariance(sigma, name: str = "covariance", require_spd: bool = False) -> np.ndarray:
    """Validate a covariance matrix.

    Checks squareness, symmetry, strictly positive diagonal and, when
    ``require_spd`` is set, positive definiteness via a Cholesky attempt.
    """
    arr = check_square(sigma, name)
    peak = _symmetric_peak(arr, name, _SYMMETRY_TOL)
    diag = np.diag(arr)
    # max |arr| is finite exactly when every entry is
    if np.any(diag <= 0.0) or not np.isfinite(peak):
        raise ValueError(f"{name} must have a strictly positive, finite diagonal")
    if require_spd:
        try:
            np.linalg.cholesky(arr)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - message passthrough
            raise ValueError(f"{name} must be symmetric positive definite") from exc
    return arr


def check_limits(a, b, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Validate lower/upper MVN integration limits.

    Infinite entries are allowed (and common: orthant probabilities use
    ``a = -inf``).  NaNs are rejected, as are any positions where the lower
    limit exceeds the upper limit.
    """
    a = ensure_1d(a, "lower limits a")
    b = ensure_1d(b, "upper limits b")
    if a.shape != b.shape:
        raise ValueError(f"lower and upper limits must have the same shape, got {a.shape} vs {b.shape}")
    if n is not None and a.shape[0] != n:
        raise ValueError(f"integration limits must have length {n}, got {a.shape[0]}")
    if np.any(np.isnan(a)) or np.any(np.isnan(b)):
        raise ValueError("integration limits must not contain NaN")
    if np.any(a > b):
        bad = int(np.argmax(a > b))
        raise ValueError(f"lower limit exceeds upper limit at index {bad}: a={a[bad]} > b={b[bad]}")
    return a, b


def check_mean(mean, n: int):
    """Validate one field mean of dimension ``n``.

    Accepts ``None`` (a zero mean), a scalar, a 0-d array, an ``(n,)``
    vector or a ``(1, n)`` row; NaN and infinite entries are rejected.
    Returns a ``float`` for the scalar forms (it broadcasts against the
    limits, and a query keeps it a scalar on the wire) and a contiguous
    ``(n,)`` vector otherwise.
    """
    arr = np.asarray(0.0 if mean is None else mean, dtype=np.float64)
    if arr.ndim == 0:
        mu = float(arr)
    elif arr.shape in ((n,), (1, n)):
        mu = np.ascontiguousarray(arr.reshape(n))
    else:
        raise ValueError(f"mean must be a scalar or have shape ({n},), got shape {arr.shape}")
    if not np.all(np.isfinite(mu)):
        raise ValueError("mean must be finite")
    return mu


def check_count(value, name: str) -> int:
    """Validate a positive count given by a caller: an integral number ``>= 1``.

    ``1e3`` reads as 1000; ``0``, ``-1``, ``2.5``, bools and strings raise a
    ``ValueError`` naming the field.  This is the rule of the boundary
    objects (configs, queries, pipelines, the broker's shard count); the
    numeric internals use the stricter :func:`check_positive_int`.
    """
    try:
        count = int(value)
        integral = count == value and not isinstance(value, bool)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or count < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return count


def check_schedule(n_samples=None, target_error=None, max_samples=None):
    """Validate a query's sample schedule; ``None`` leaves a setting unset.

    Counts follow :func:`check_count`, ``target_error`` must be positive
    and the ``max_samples`` budget must not undercut ``n_samples``.
    Returns the canonical ``(n_samples, target_error, max_samples)``.
    """
    if n_samples is not None:
        n_samples = check_count(n_samples, "n_samples")
    if target_error is not None:
        target = float(target_error)
        if not target > 0.0:
            raise ValueError(f"target_error must be > 0, got {target_error!r}")
        target_error = target
    if max_samples is not None:
        max_samples = check_count(max_samples, "max_samples")
        if n_samples is not None and max_samples < n_samples:
            raise ValueError(
                f"max_samples ({max_samples}) must be >= the initial n_samples ({n_samples})"
            )
    return n_samples, target_error, max_samples


def check_positive_int(value, name: str = "value") -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_probability(p, name: str = "probability") -> float:
    """Validate that ``p`` lies in the closed interval [0, 1]."""
    p = float(p)
    if not (0.0 <= p <= 1.0) or np.isnan(p):
        raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return p


def check_accuracy(accuracy) -> float:
    """Validate a relative TLR accuracy, which must lie in the open interval (0, 1)."""
    accuracy = float(accuracy)
    if not 0.0 < accuracy < 1.0:
        raise ValueError("accuracy must lie in (0, 1)")
    return accuracy
