"""Pluggable backends for the QMC tile kernel (the SOV hot path).

Once the session API amortizes factorization, every ``Model.probability*``
call spends most of its time inside :func:`repro.core.qmc_kernel.qmc_kernel_tile`
— ``n`` rows of ``Phi``/``Phi^{-1}`` evaluations per chain block.  This module
makes that inner loop allocation-free and swappable:

* :class:`KernelWorkspace` owns the per-row scratch vectors (``shift``, the
  standardized-limit buffers, ``phi``, ``width``), the per-tile diagonal and,
  for prefix sweeps, the ``rows x chains`` running products, so a worker
  thread validates and allocates once per tile instead of once per row.
* ``"reference"`` is the original (pre-optimization) row loop, kept verbatim
  as the parity and benchmark baseline.
* ``"numpy"`` (the default) is a fused rewrite: every row update writes into
  workspace buffers with ``out=``, the two one-sided special cases
  (``a_i = -inf`` / ``b_i = +inf``, where ``Phi`` is exactly ``0.0`` / ``1.0``)
  skip the corresponding CDF evaluation entirely, and adjacent lo/hi buffers
  share single ``ndtr`` calls.  Its outputs are **bit-identical** to the
  reference backend — only dead work is removed, no floating-point operation
  that reaches an output is reordered or rewritten.

The recursion runs sequentially within one (row tile, chain block) pair;
parallelism comes from the task runtime, which runs different chain blocks
(and, across row tiles, the GEMM propagation) as independent tasks.

Selection precedence: explicit ``backend=`` argument (or
``SolverConfig.backend`` / the CLI ``--backend`` flag) > the
``REPRO_KERNEL_BACKEND`` environment variable > ``"numpy"``.  Unknown names
— from either source — raise ``ValueError`` listing
:func:`available_backends` instead of failing mid-sweep.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.stats.normal import norm_cdf, norm_ppf

__all__ = [
    "KernelBackend",
    "KernelWorkspace",
    "available_backends",
    "get_backend",
    "resolve_backend_name",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
]

#: environment variable consulted when no explicit backend is requested
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: the backend used when neither an argument nor the env var selects one
DEFAULT_BACKEND = "numpy"


class KernelWorkspace:
    """Reusable scratch buffers for one worker thread's kernel calls.

    The buffers grow monotonically to the largest ``(rows, chains)`` tile the
    thread has seen and are sliced per call, so a sweep allocates each vector
    once instead of ~10 fresh arrays per row.  ``bind_tile`` validates the
    diagonal of a tile in one vectorized check (callers never observe a
    partially-updated chain state from a bad tile).
    """

    def __init__(self) -> None:
        self._chains = 0
        self._rows = 0
        self.shift = np.empty(0)
        self.lohi = np.empty(0)   # standardized a'/b' rows, adjacent halves
        self.phi = np.empty(0)    # Phi(a') / Phi(b'), adjacent halves
        self.width = np.empty(0)
        self.diag = np.empty(0)
        self.products = np.empty((0, 0))  # running product after each row

    def ensure(self, rows: int, chains: int) -> None:
        """Grow the buffers to cover an ``(rows, chains)`` tile."""
        if chains > self._chains:
            self._chains = chains
            self.shift = np.empty(chains)
            self.lohi = np.empty(2 * chains)
            self.phi = np.empty(2 * chains)
            self.width = np.empty(chains)
        if rows > self._rows:
            self._rows = rows
            self.diag = np.empty(rows)

    def row_products(self, rows: int, chains: int) -> np.ndarray:
        """An ``(rows, chains)`` scratch for the running product after each row.

        Only prefix sweeps ask for it; it grows like the other buffers.
        """
        have_rows, have_chains = self.products.shape
        if rows > have_rows or chains > have_chains:
            self.products = np.empty((max(rows, have_rows), max(chains, have_chains)))
        return self.products[:rows, :chains]

    def bind_tile(self, l_tile: np.ndarray) -> np.ndarray:
        """Validate the tile diagonal once and cache it.

        Raises ``LinAlgError`` *before* any chain state is touched, replacing
        the reference kernel's mid-sweep per-row check.
        """
        m = l_tile.shape[0]
        self.ensure(m, self._chains or 1)
        diag = self.diag[:m]
        np.copyto(diag, np.diagonal(l_tile))
        if not np.all(diag > 0.0):
            bad = int(np.argmin(diag > 0.0))
            raise np.linalg.LinAlgError(
                f"non-positive diagonal entry L[{bad},{bad}]={diag[bad]} in QMC kernel"
            )
        return diag


@dataclass(frozen=True)
class KernelBackend:
    """A named implementation of the QMC tile row recursion.

    ``run`` has the signature
    ``run(l_tile, r_tile, a_tile, b_tile, p_seg, y_tile, products,
    workspace)`` and must update ``p_seg`` / ``y_tile`` in place; when
    ``products`` (``rows x chains``) is given, row ``i`` of it receives
    ``p_seg`` as it stands after row ``i``.  The workspace arrives sized
    (``ensure``) and bound to the tile (``bind_tile``) by the dispatcher
    (:func:`repro.core.qmc_kernel.qmc_kernel_tile`), so backends read
    ``workspace.diag`` without re-validating.
    """

    name: str
    run: Callable = field(repr=False)


# ---------------------------------------------------------------------------
# reference backend: the original row loop, kept verbatim for parity checks
# and as the benchmark baseline ("the pre-PR kernel")
# ---------------------------------------------------------------------------

def _reference_kernel(l_tile, r_tile, a_tile, b_tile, p_seg, y_tile,
                      products, workspace) -> None:
    m = l_tile.shape[0]
    for i in range(m):
        diag = l_tile[i, i]
        if diag <= 0.0:
            raise np.linalg.LinAlgError(
                f"non-positive diagonal entry L[{i},{i}]={diag} in QMC kernel"
            )
        if i:
            shift = l_tile[i, :i] @ y_tile[:i, :]
            ai = (a_tile[i] - shift) / diag
            bi = (b_tile[i] - shift) / diag
        else:
            ai = a_tile[i] / diag
            bi = b_tile[i] / diag
        phi_a = norm_cdf(ai)
        phi_b = norm_cdf(bi)
        width = np.maximum(phi_b - phi_a, 0.0)
        p_seg *= width
        y_tile[i] = norm_ppf(phi_a + r_tile[i] * width)
        if products is not None:
            products[i] = p_seg
    return None


# ---------------------------------------------------------------------------
# numpy backend: fused, allocation-free, bit-identical to the reference
# ---------------------------------------------------------------------------

def _row_extreme(tile: np.ndarray, reduce) -> np.ndarray:
    """``reduce(tile, axis=1)``; a broadcast row (zero column stride) is its first column.

    The sweep passes a read-only broadcast view for an all-infinite side,
    and reducing one costs about four times reducing a buffer.
    """
    if tile.strides[1] == 0:
        return tile[:, 0]
    return reduce(tile, axis=1)


def _numpy_kernel(l_tile, r_tile, a_tile, b_tile, p_seg, y_tile,
                  products, workspace) -> None:
    """Fused row recursion writing only into workspace buffers.

    Bit-identity notes (each special case removes work without changing any
    value that reaches an output):

    * ``Phi(-inf)`` is exactly ``+0.0`` and ``Phi(+inf)`` exactly ``1.0``, and
      ``-inf`` / ``+inf`` limits stay infinite under the (finite) GEMM shifts,
      so rows with one-sided limits skip the standardize+CDF of that side;
      ``width - 0.0``, ``max(width, 0.0)`` for ``width = Phi(b') >= 0``, and
      ``phi_a + x`` for ``phi_a = 0`` are all exact no-ops and are dropped.
    * ``x * 1.0 == x`` exactly, so fully unbounded rows copy the uniforms and
      leave ``p_seg`` untouched.
    * the final clip-and-invert goes through ``norm_ppf(..., out=yr)``, whose
      ``out=`` path spells ``np.clip`` as its definition
      ``minimum(maximum(x, lo), hi)`` — cheaper than the ``np.clip`` wrapper,
      identical elementwise.
    * adjacent lo/hi halves of one buffer share single ``divide``/``norm_cdf``
      calls — elementwise ufuncs, so per-element results are unchanged.
    """
    m = l_tile.shape[0]
    c = r_tile.shape[1]
    # the dispatcher has already sized and bound the workspace (ensure +
    # bind_tile); direct callers of this private function must do the same
    diag = workspace.diag[:m]
    shift = workspace.shift[:c]
    width = workspace.width[:c]
    lohi = workspace.lohi
    phi = workspace.phi
    # one bool per row, exact: a row takes a one-sided fast path only when
    # *every* chain's limit is infinite (the row max/min is -inf/+inf).  The
    # PMVN sweep replicates one box limit across the chains of a row, but the
    # kernel is public API and must stay correct for heterogeneous columns —
    # mixed rows fall through to the general path, whose elementwise ops
    # handle infinities exactly like the reference loop.
    lo_inf = np.isneginf(_row_extreme(a_tile, np.max)).tolist()
    hi_inf = np.isposinf(_row_extreme(b_tile, np.min)).tolist()
    for i in range(m):
        d = diag[i]
        np.dot(l_tile[i, :i], y_tile[:i, :], out=shift)
        yr = y_tile[i]
        if lo_inf[i]:
            if hi_inf[i]:
                # (-inf, +inf): width == 1.0 exactly; p_seg * 1.0 == p_seg
                np.copyto(yr, r_tile[i])
            else:
                # (-inf, b]: Phi(a') == 0.0 exactly
                np.subtract(b_tile[i], shift, out=width)
                np.divide(width, d, out=width)
                norm_cdf(width, out=width)
                p_seg *= width
                np.multiply(r_tile[i], width, out=yr)
        elif hi_inf[i]:
            # [a, +inf): Phi(b') == 1.0 exactly
            lo = lohi[:c]
            phi_a = phi[:c]
            np.subtract(a_tile[i], shift, out=lo)
            np.divide(lo, d, out=lo)
            norm_cdf(lo, out=phi_a)
            np.subtract(1.0, phi_a, out=width)
            p_seg *= width
            np.multiply(r_tile[i], width, out=yr)
            yr += phi_a
        else:
            buf = lohi[: 2 * c]
            pbuf = phi[: 2 * c]
            np.subtract(a_tile[i], shift, out=buf[:c])
            np.subtract(b_tile[i], shift, out=buf[c:])
            np.divide(buf, d, out=buf)
            norm_cdf(buf, out=pbuf)
            phi_a = pbuf[:c]
            np.subtract(pbuf[c:], phi_a, out=width)
            np.maximum(width, 0.0, out=width)
            p_seg *= width
            np.multiply(r_tile[i], width, out=yr)
            yr += phi_a
        norm_ppf(yr, out=yr)
        if products is not None:
            np.copyto(products[i], p_seg)
    return None


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, KernelBackend] = {
    "reference": KernelBackend(name="reference", run=_reference_kernel),
    "numpy": KernelBackend(name="numpy", run=_numpy_kernel),
}


def available_backends() -> list[str]:
    """Names of the registered backends (sorted)."""
    return sorted(_REGISTRY)


def resolve_backend_name(name: str | None) -> str:
    """Canonicalize a requested backend name and reject unknown ones early.

    ``None`` falls back to ``$REPRO_KERNEL_BACKEND`` and then to
    ``"numpy"``.  A name that is not registered raises ``ValueError``
    listing :func:`available_backends` — whether it came from an argument,
    ``SolverConfig``, or the environment variable — so typos surface at
    configuration time instead of deep inside a sweep.
    """
    from_env = False
    if name is None:
        env = os.environ.get(BACKEND_ENV_VAR)
        from_env = bool(env)
        name = env or DEFAULT_BACKEND
    name = str(name).lower()
    if name not in _REGISTRY:
        source = f" (from ${BACKEND_ENV_VAR})" if from_env else ""
        raise ValueError(
            f"unknown kernel backend {name!r}{source}; "
            f"available on this install: {', '.join(available_backends())}"
        )
    return name


def get_backend(name: str | None = None) -> KernelBackend:
    """Resolve a backend name (see module docstring for precedence rules)."""
    return _REGISTRY[resolve_backend_name(name)]
