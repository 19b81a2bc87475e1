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
from repro.core.methods import AUTO_METHOD, PARALLEL_METHODS, canonical_method
from repro.runtime.scheduler import canonical_policy
from repro.stats.qmc import canonical_qmc

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
        TLR compression accuracy (ignored by ``"dense"`` and the baselines).
    max_rank : int, optional
        Hard rank cap for TLR tiles.
    qmc : str
        QMC sequence name (``"richtmyer"``, ``"halton"``, ``"sobol"``,
        ``"random"``; canonicalized through
        :func:`repro.stats.qmc.canonical_qmc`, so ``"lattice"`` is
        ``"richtmyer"`` and unknown names raise at construction).
    backend : str, optional
        QMC kernel backend (``"numpy"``, ``"numba"``, ``"numba-parallel"``,
        ``"reference"``, ``"auto"``); ``None`` follows
        ``$REPRO_KERNEL_BACKEND`` and defaults to the fused bit-identical
        numpy backend.  Unknown names raise at construction.  See
        :mod:`repro.core.kernel_backend` and ``docs/performance.md``.
    kernel_threads : int, optional
        Thread count for chain-parallel kernel backends
        (``numba-parallel``); ``None`` defers to ``$REPRO_KERNEL_THREADS``
        and then to the backend default (all cores).  Single-threaded
        backends ignore it.
    policy : str, optional
        Runtime scheduling policy for solvers built from this config
        (canonicalized through
        :func:`repro.runtime.scheduler.canonical_policy`; aliases accepted —
        see ``docs/runtime.md``).  ``None`` keeps the runtime default
        (``"prio"``).  Scheduling never changes numerical results — the
        policy only affects wall time.
    """

    method: str = "dense"
    n_samples: int = 10_000
    tile_size: int | None = None
    accuracy: float = 1e-3
    max_rank: int | None = None
    qmc: str = "richtmyer"
    backend: str | None = None
    kernel_threads: int | None = None
    policy: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", canonical_method(self.method))
        object.__setattr__(self, "qmc", canonical_qmc(self.qmc))
        if self.backend is not None:
            # canonicalize and validate the name now; availability (e.g. a
            # missing numba) is resolved at kernel-dispatch time
            object.__setattr__(self, "backend", resolve_backend_name(self.backend))
        object.__setattr__(self, "n_samples", self._positive_int("n_samples", self.n_samples))
        object.__setattr__(self, "tile_size", self._positive_int("tile_size", self.tile_size, optional=True))
        if not (float(self.accuracy) > 0.0):
            raise ValueError("accuracy must be > 0")
        object.__setattr__(self, "accuracy", float(self.accuracy))
        object.__setattr__(self, "max_rank", self._positive_int("max_rank", self.max_rank, optional=True))
        object.__setattr__(self, "kernel_threads", self._positive_int("kernel_threads", self.kernel_threads, optional=True))
        if self.policy is not None:
            object.__setattr__(self, "policy", canonical_policy(self.policy))

    @staticmethod
    def _positive_int(name: str, value, optional: bool = False) -> int | None:
        if optional and value is None:
            return None
        as_int = int(value)
        if as_int != value:
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if as_int < 1:
            raise ValueError(f"{name} must be >= 1" + (" (or None)" if optional else ""))
        return as_int

    @property
    def is_parallel(self) -> bool:
        """Whether the configured method runs on a Cholesky factor."""
        return self.method in PARALLEL_METHODS

    @property
    def is_auto(self) -> bool:
        """Whether the estimator is planner-chosen per query (``"auto"``)."""
        return self.method == AUTO_METHOD

    def replace(self, **changes) -> "SolverConfig":
        """A copy of the config with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)
