"""Solver configuration: every evaluation knob, validated once.

:class:`SolverConfig` collects the method/sampling/tile parameters that the
functional API (:func:`repro.core.api.mvn_probability` and friends) spreads
over a dozen keyword arguments.  The config is a frozen dataclass — validate
at construction, then share freely between solvers, threads and log lines.
The ``method`` string is canonicalized through the single registry in
:mod:`repro.core.methods`, so a config can never hold an alias or an unknown
name.

Precedence: a :class:`~repro.solver.solver.Model` call site may override the
sampling knobs per call (``n_samples=``, ``rng=``, ``qmc=``); everything
that shapes the *factorization* (``method``, ``tile_size``, ``accuracy``,
``max_rank``) is fixed by the config so one model maps to exactly one cached
factor.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.kernel_backend import resolve_backend_name
from repro.core.methods import PARALLEL_METHODS, canonical_method
from repro.stats.qmc import canonical_qmc
from repro.utils.validation import check_accuracy, check_count

__all__ = ["SolverConfig"]


@dataclass(frozen=True)
class SolverConfig:
    """Immutable bundle of MVN evaluation settings.

    Attributes
    ----------
    method : str
        Estimator name (canonicalized; aliases accepted — see
        ``docs/methods.md``).
    n_samples : int
        Default Monte Carlo / QMC sample size; overridable per call.
    tile_size : int, optional
        Tile extent for the factor-based methods (``None`` = heuristic).
    accuracy : float
        TLR compression accuracy, in (0, 1) (ignored by ``"dense"`` and the
        baselines, but validated for every method).
    max_rank : int, optional
        Hard rank cap for TLR tiles.
    qmc : str
        QMC sequence name (``"richtmyer"``, ``"halton"``, ``"sobol"``,
        ``"random"``; canonicalized through
        :func:`repro.stats.qmc.canonical_qmc`, so ``"lattice"`` is
        ``"richtmyer"`` and unknown names raise at construction).
    backend : str, optional
        QMC kernel backend (``"numpy"`` or ``"reference"``); ``None``
        follows ``$REPRO_KERNEL_BACKEND`` and defaults to the fused
        bit-identical numpy backend.  Unknown names raise at construction.
        See :mod:`repro.core.kernel_backend` and ``docs/performance.md``.

    The runtime's scheduling policy is not an evaluation setting: it is
    passed to :class:`~repro.solver.MVNSolver` (``policy=``).
    """

    method: str = "dense"
    n_samples: int = 10_000
    tile_size: int | None = None
    accuracy: float = 1e-3
    max_rank: int | None = None
    qmc: str = "richtmyer"
    backend: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", canonical_method(self.method))
        object.__setattr__(self, "qmc", canonical_qmc(self.qmc))
        if self.backend is not None:
            object.__setattr__(self, "backend", resolve_backend_name(self.backend))
        object.__setattr__(self, "n_samples", check_count(self.n_samples, "n_samples"))
        object.__setattr__(self, "accuracy", check_accuracy(self.accuracy))
        for name in ("tile_size", "max_rank"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, check_count(value, name))

    @property
    def is_parallel(self) -> bool:
        """Whether the configured method runs on a Cholesky factor."""
        return self.method in PARALLEL_METHODS

    def replace(self, **changes) -> "SolverConfig":
        """A copy of the config with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)
