"""The declarative query object: *what* is asked, nothing about *how*.

:class:`MVNQuery` is the single validated description of one MVN box query
``P(a <= X <= b)``.  Every entry point of the library — the functional
wrappers, :class:`repro.solver.Model`, the batched API and the serving
broker — normalizes its arguments into one of these, so shape mismatches,
NaN limits and inverted boxes are rejected *once*, at the query boundary,
with one uniform ``ValueError`` (historically some paths validated deep
inside the sweep, or not at all).

A query carries only caller intent:

* the integration limits (validated, ``+/- inf`` allowed),
* an optional mean (``None`` defers to the model's bound mean),
* optional sampling overrides (``n_samples``, ``qmc``, ``rng`` seed),
* an optional accuracy contract — ``target_error`` plus a ``max_samples``
  budget — driving the planner's adaptive refinement loop,
* an arbitrary ``tag`` the caller can use to correlate results.

How the query runs (estimator, kernel backend, escalation schedule) is the
:class:`repro.query.QueryPlanner`'s job; see ``docs/query.md``.

>>> import numpy as np
>>> from repro.query import MVNQuery
>>> q = MVNQuery([-np.inf, -np.inf], [0.0, 1.0], target_error=1e-3, tag="cell-7")
>>> q.n, q.tag
(2, 'cell-7')
>>> MVNQuery([0.0], [-1.0])
Traceback (most recent call last):
    ...
ValueError: lower limit exceeds upper limit at index 0: a=0.0 > b=-1.0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.stats.qmc import canonical_qmc
from repro.utils.validation import check_limits

__all__ = ["MVNQuery"]

#: the exact key set of the JSON wire form (``to_dict``/``from_dict``)
_WIRE_FIELDS = ("a", "b", "mean", "n_samples", "rng", "qmc",
                "target_error", "max_samples", "tag")


def one_sided_fraction(boxes) -> float:
    """Fraction of the limit entries of validated ``(a, b)`` boxes that are infinite.

    One-sided (CDF-style) boxes let the fused QMC kernel skip the
    corresponding ``Phi`` evaluations, which the planner's cost model
    credits to the kernel phase.  A batch aggregates over all its boxes.
    """
    infinite = sum(int(np.isneginf(a).sum()) + int(np.isposinf(b).sum()) for a, b in boxes)
    total = sum(a.size + b.size for a, b in boxes)
    return infinite / total if total else 0.0


@dataclass(frozen=True, eq=False)
class MVNQuery:
    """One validated MVN box query ``P(a <= X <= b)``.

    Attributes
    ----------
    a, b : array_like (n,)
        Integration limits (``+/- inf`` allowed).  Validated at
        construction: NaNs, ``a > b`` and shape mismatches raise
        ``ValueError`` here, before any factorization or sweep starts.
    mean : scalar or array_like (n,), optional
        Field mean, absorbed into the limits at execution time.  ``None``
        defers to the executing :class:`repro.solver.Model`'s bound mean
        (and means "zero mean" on the serving path).
    n_samples : int, optional
        Initial QMC sample size; ``None`` follows the executing solver's
        :class:`repro.solver.SolverConfig`.
    rng : int seed or Generator, optional
        QMC randomization source.  The serving path additionally requires
        an integer seed (or ``None``), exactly like
        :meth:`repro.serve.QueryBroker.submit`.
    qmc : str, optional
        QMC sequence override (``None`` follows the config); canonicalized
        like :attr:`repro.solver.SolverConfig.qmc`, so unknown names raise
        here.
    target_error : float, optional
        Requested standard-error ceiling.  When set, the executor re-runs
        the estimator with escalating sample counts (reusing the cached
        factor and pooled workspaces) until ``result.error <= target_error``
        or the budget is exhausted; the outcome is recorded under
        ``result.details["plan"]``.
    max_samples : int, optional
        Hard sample budget for the adaptive loop (per box).  ``None``
        defaults to ``DEFAULT_BUDGET_MULTIPLIER x`` the initial sample size
        (see :mod:`repro.query.planner`).
    tag : object, optional
        Free-form caller annotation; never interpreted by the library.
    """

    a: np.ndarray
    b: np.ndarray
    mean: Any = None
    n_samples: int | None = None
    rng: Any = None
    qmc: str | None = None
    target_error: float | None = None
    max_samples: int | None = None
    tag: Any = None

    def __post_init__(self) -> None:
        a, b = check_limits(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "mean", self._normalize_mean(self.mean, a.shape[0]))
        if self.n_samples is not None:
            object.__setattr__(self, "n_samples", self._positive_int("n_samples", self.n_samples))
        if self.qmc is not None:
            object.__setattr__(self, "qmc", canonical_qmc(self.qmc))
        if self.target_error is not None:
            target = float(self.target_error)
            if not (target > 0.0):
                raise ValueError(f"target_error must be > 0, got {self.target_error!r}")
            object.__setattr__(self, "target_error", target)
        if self.max_samples is not None:
            max_samples = self._positive_int("max_samples", self.max_samples)
            if self.n_samples is not None and max_samples < self.n_samples:
                raise ValueError(
                    f"max_samples ({max_samples}) must be >= the initial "
                    f"n_samples ({self.n_samples})"
                )
            object.__setattr__(self, "max_samples", max_samples)

    @staticmethod
    def _positive_int(name: str, value) -> int:
        as_int = int(value)
        if as_int != value or as_int < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
        return as_int

    @staticmethod
    def _normalize_mean(mean, n: int):
        """Mean as ``None`` (defer / zero), a float, or a finite ``(n,)`` vector."""
        if mean is None:
            return None
        if np.isscalar(mean):
            mu = float(mean)
        else:
            arr = np.asarray(mean, dtype=np.float64)
            if arr.ndim == 0:
                mu = float(arr)
            else:
                if arr.shape != (n,):
                    raise ValueError(
                        f"mean must be a scalar or length-{n} vector, got shape {arr.shape}"
                    )
                if not np.all(np.isfinite(arr)):
                    raise ValueError("mean must be finite")
                return np.ascontiguousarray(arr)
        if not np.isfinite(mu):
            raise ValueError("mean must be finite")
        return mu

    # -- wire form -------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The JSON-safe wire form of the query (gateway protocol).

        Limits serialize as float lists (``inf`` survives Python's JSON
        encoder), the mean as ``None`` / float / list.  ``rng`` must be an
        integer seed or ``None`` — generator objects cannot cross a
        network boundary without changing the stream — and ``tag`` must be
        a JSON primitive for the same reason.

        >>> q = MVNQuery([0.0], [1.5], n_samples=200, rng=7, tag="cell-3")
        >>> MVNQuery.from_dict(q.to_dict()).tag
        'cell-3'
        """
        if self.rng is not None and not isinstance(self.rng, (int, np.integer)):
            raise TypeError(
                "only integer seeds (or None) serialize; generator rng "
                "objects cannot cross a process/network boundary"
            )
        if self.tag is not None and not isinstance(self.tag, (bool, int, float, str)):
            raise TypeError(
                f"tag must be a JSON primitive to serialize, got "
                f"{type(self.tag).__name__}"
            )
        mean = self.mean
        if isinstance(mean, np.ndarray):
            mean = mean.tolist()
        return {
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "mean": mean,
            "n_samples": self.n_samples,
            "rng": None if self.rng is None else int(self.rng),
            "qmc": self.qmc,
            "target_error": self.target_error,
            "max_samples": self.max_samples,
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MVNQuery":
        """Rebuild a query from its :meth:`to_dict` wire form (strict).

        Unknown keys raise ``ValueError`` — a misspelled field in a network
        request must fail loudly, not silently change the query's meaning.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"query payload must be a JSON object, got {type(payload).__name__}"
            )
        unknown = set(payload) - set(_WIRE_FIELDS)
        if unknown:
            raise ValueError(f"unknown MVNQuery field(s): {sorted(map(str, unknown))}")
        missing = {"a", "b"} - set(payload)
        if missing:
            raise ValueError(f"query payload is missing field(s): {sorted(missing)}")
        return cls(
            payload["a"], payload["b"], mean=payload.get("mean"),
            n_samples=payload.get("n_samples"), rng=payload.get("rng"),
            qmc=payload.get("qmc"), target_error=payload.get("target_error"),
            max_samples=payload.get("max_samples"), tag=payload.get("tag"),
        )

    # -- derived shape info ----------------------------------------------------------
    @property
    def n(self) -> int:
        """Dimensionality of the query."""
        return self.a.shape[0]

    @property
    def one_sided_fraction(self) -> float:
        """Fraction of the ``2n`` limit entries that are infinite.

        The query's own box through :func:`one_sided_fraction`.
        """
        return one_sided_fraction([(self.a, self.b)])

    @property
    def wants_adaptive(self) -> bool:
        """Whether this query requests adaptive accuracy targeting."""
        return self.target_error is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extras = []
        if self.n_samples is not None:
            extras.append(f"N={self.n_samples}")
        if self.target_error is not None:
            extras.append(f"target={self.target_error:g}")
        if self.tag is not None:
            extras.append(f"tag={self.tag!r}")
        suffix = (", " + ", ".join(extras)) if extras else ""
        return f"MVNQuery(n={self.n}{suffix})"
