"""The declarative query object: *what* is asked, nothing about *how*.

:class:`MVNQuery` is the single validated description of one MVN box query
``P(a <= X <= b)``.  The single-box entry points — the functional wrapper,
:meth:`repro.solver.Model.probability` and the serving broker — normalize
their arguments into one of these, so shape mismatches, NaN limits,
inverted boxes and non-finite means are rejected at the query boundary by
the rules of :mod:`repro.utils.validation`, the same ones the batched API
runs on each of its boxes (``docs/query.md`` tabulates where each input is
checked).

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
from repro.utils.validation import check_limits, check_mean, check_schedule

__all__ = ["MVNQuery"]

#: the exact key set of the JSON wire form (``to_dict``/``from_dict``)
_WIRE_FIELDS = ("a", "b", "mean", "n_samples", "rng", "qmc",
                "target_error", "max_samples", "tag")


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
        Field mean, absorbed into the limits at execution time; checked by
        :func:`repro.utils.validation.check_mean` (a scalar stays a
        ``float``, a vector may come as a ``(1, n)`` row, non-finite values
        raise).  ``None`` defers to the executing
        :class:`repro.solver.Model`'s bound mean (and means "zero mean" on
        the serving path).
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
        if self.mean is not None:
            object.__setattr__(self, "mean", check_mean(self.mean, a.shape[0]))
        if self.qmc is not None:
            object.__setattr__(self, "qmc", canonical_qmc(self.qmc))
        schedule = check_schedule(self.n_samples, self.target_error, self.max_samples)
        for name, value in zip(("n_samples", "target_error", "max_samples"), schedule):
            object.__setattr__(self, name, value)

    def check_dimension(self, n: int) -> None:
        """Reject the query unless its limits have length ``n``.

        The one check a model or broker adds when it takes a query: the
        limits themselves were checked when the query was built.
        """
        if self.n != n:
            raise ValueError(f"integration limits must have length {n}, got {self.n}")

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

        One-sided (CDF-style) boxes let the fused QMC kernel skip the
        corresponding ``Phi`` evaluations, which the planner's cost model
        credits to the kernel phase.
        """
        infinite = int(np.isneginf(self.a).sum()) + int(np.isposinf(self.b).sum())
        return infinite / (2 * self.n) if self.n else 0.0

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
